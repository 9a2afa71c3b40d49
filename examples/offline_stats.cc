// Offline statistics pipeline: build once, persist, load, estimate.
//
// Mirrors how a deployment would use the library: an offline job
// generates the database (here: synthesizes it), runs the SIT advisor
// against a training workload, and writes catalog + SIT pool to disk;
// the "optimizer process" later loads both and serves estimates without
// ever touching the data again.
//
//   $ ./offline_stats [workdir]

#include <cstdio>
#include <string>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/harness/runner.h"
#include "condsel/io/serialize.h"
#include "condsel/sit/sit_advisor.h"

using namespace condsel;  // NOLINT: example brevity

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string catalog_path = dir + "/condsel_demo_catalog.bin";
  const std::string pool_path = dir + "/condsel_demo_pool.bin";

  // ---- offline job -------------------------------------------------
  {
    SnowflakeOptions opt;
    opt.scale = 0.005;
    Catalog catalog = BuildSnowflake(opt);
    CardinalityCache cache;
    Evaluator evaluator(&catalog, &cache);

    WorkloadOptions wopt;
    wopt.num_queries = 8;
    wopt.num_joins = 3;
    const std::vector<Query> training =
        GenerateWorkload(catalog, &evaluator, wopt);

    SitBuilder builder(&evaluator, SitBuildOptions{});
    AdvisorOptions aopt;
    aopt.budget = 8;
    aopt.max_join_preds = 2;
    const AdvisorResult advised = AdviseSits(training, builder, aopt);

    Status w = WriteCatalog(catalog, catalog_path);
    if (!w.ok()) {
      std::printf("catalog write failed: %s\n", w.message().c_str());
      return 1;
    }
    w = WriteSitPool(advised.pool, pool_path);
    if (!w.ok()) {
      std::printf("pool write failed: %s\n", w.message().c_str());
      return 1;
    }
    std::printf("offline: wrote %d tables and %d statistics (%zu advised)\n",
                catalog.num_tables(), advised.pool.size(),
                advised.steps.size());
  }

  // ---- optimizer process -------------------------------------------
  Catalog catalog;
  SitPool pool;
  Status r = ReadCatalog(catalog_path, &catalog);
  if (!r.ok()) {
    std::printf("catalog load failed: %s\n", r.message().c_str());
    return 1;
  }
  r = ReadSitPool(pool_path, catalog, &pool);
  if (!r.ok()) {
    std::printf("pool load failed: %s\n", r.message().c_str());
    return 1;
  }
  std::printf("online:  loaded %d tables, %d statistics\n\n",
              catalog.num_tables(), pool.size());

  // Fresh (unseen) workload, estimated from the loaded statistics; the
  // evaluator here is only used to report the true values.
  CardinalityCache cache;
  Evaluator evaluator(&catalog, &cache);
  WorkloadOptions wopt;
  wopt.num_queries = 5;
  wopt.num_joins = 3;
  wopt.seed = 999;  // different from training
  const std::vector<Query> serving =
      GenerateWorkload(catalog, &evaluator, wopt);

  Runner runner(&catalog, &evaluator);
  const WorkloadRunResult result =
      runner.Run(serving, pool, Technique::kGsDiff);
  std::printf("%-8s %14s %14s\n", "query", "estimate", "true");
  for (size_t i = 0; i < result.per_query.size(); ++i) {
    std::printf("q%-7zu %14.1f %14.0f\n", i,
                result.per_query[i].full_query_est,
                result.per_query[i].full_query_true);
  }
  std::printf(
      "\navg abs error over all sub-plans: %.2f (statistics were chosen on "
      "a\ndifferent training workload and shipped through disk)\n",
      result.avg_abs_error);
  std::remove(catalog_path.c_str());
  std::remove(pool_path.c_str());
  return 0;
}
