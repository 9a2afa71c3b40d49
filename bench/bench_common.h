// Shared setup for the figure-reproduction benches: the Section 5
// snowflake database, workloads, and SIT pools. The benches print the
// tables EXPERIMENTS.md is built from; throughput, latency and
// allocations per request are measured by the seeded suite in
// bench/suite/ (condsel_bench), not here.
//
// Scale knobs (environment variables):
//   CONDSEL_SCALE    table-size scale; 1.0 = the paper's 1K..1M rows.
//                    Bench default is 0.01 to fit a single-core CI run.
//   CONDSEL_QUERIES  queries per workload (paper: 100).

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/report.h"
#include "condsel/harness/runner.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace bench {

inline int EnvInt(const char* name, int def) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return def;
}

inline double EnvDouble(const char* name, double def) {
  if (const char* s = std::getenv(name)) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return def;
}

struct BenchEnv {
  Catalog catalog;
  CardinalityCache cache;
  std::unique_ptr<Evaluator> evaluator;
  std::unique_ptr<SitBuilder> builder;

  explicit BenchEnv(double default_scale = 0.01, double zipf_theta = 1.0) {
    SnowflakeOptions opt;
    opt.scale = EnvDouble("CONDSEL_SCALE", default_scale);
    opt.zipf_theta = zipf_theta;
    std::printf("# snowflake scale=%.4g (CONDSEL_SCALE to change)\n",
                opt.scale);
    catalog = BuildSnowflake(opt);
    evaluator = std::make_unique<Evaluator>(&catalog, &cache);
    builder = std::make_unique<SitBuilder>(evaluator.get(),
                                           SitBuildOptions{});
  }

  std::vector<Query> Workload(int num_joins, int num_queries,
                              uint64_t seed = 1234) {
    WorkloadOptions wopt;
    wopt.num_queries = num_queries;
    wopt.num_joins = num_joins;
    wopt.num_filters = 3;
    wopt.seed = seed + static_cast<uint64_t>(num_joins) * 101;
    return GenerateWorkload(catalog, evaluator.get(), wopt);
  }
};

}  // namespace bench
}  // namespace condsel
