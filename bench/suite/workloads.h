// The four condsel_bench workloads and the one process that runs each.
//
// Every workload shares the snowflake catalog at scale 0.05 (the fact
// table has 50k rows, zipf 1.0), the Diff ranking and 200-bucket MaxDiff
// statistics. The catalog is the same for every seed; the statements,
// the SIT pool built for them and the churn rows all derive from the
// seed. See README.md for why each workload exists.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"

namespace condsel {
namespace bench_suite {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time, split into equal windows
  bool trace = false;     // also run the traced pass
  bool smoke = false;     // tiny inputs and windows: checks, not numbers
};

struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;  // filled by the traced pass only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // what failed, for the log
  std::string details_json;         // window rates, sizes, service stats
  std::string trace_json;           // TRACE_<workload>.json contents
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end: set-up, warm-up, measurement windows and,
// with `trace`, the traced pass. Never throws on a failed request; every
// failure is counted in `failed` and described in `errors`.
RunResult RunWorkload(const RunConfig& config);

}  // namespace bench_suite
}  // namespace condsel
