// Section 4 walk-through: coupling getSelectivity with a Cascades-style
// optimizer memo.
//
// Builds the memo for a 3-table query, prints its groups and entries,
// and compares the entry-induced (optimizer-coupled) estimates with the
// full dynamic program: the coupled search is cheaper but may settle for
// a slightly worse decomposition.
//
//   $ ./optimizer_integration

#include <cstdio>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/optimizer/integration.h"
#include "condsel/optimizer/rules.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

using namespace condsel;  // NOLINT: example brevity

int main() {
  SnowflakeOptions opt;
  opt.scale = 0.01;
  const Catalog catalog = BuildSnowflake(opt);
  CardinalityCache cache;
  Evaluator evaluator(&catalog, &cache);

  WorkloadOptions wopt;
  wopt.num_queries = 1;
  wopt.num_joins = 2;
  wopt.num_filters = 2;
  const Query query =
      GenerateWorkload(catalog, &evaluator, wopt).front();
  std::printf("query: %s\n\n", query.ToString(catalog).c_str());

  SitBuilder builder(&evaluator, SitBuildOptions{});
  const SitPool pool = GenerateSitPool({query}, 2, builder);
  SitMatcher matcher(&pool);
  matcher.BindQuery(&query);
  DiffError diff;

  // The optimizer memo (Section 4.1).
  Memo memo(&query);
  BuildAndExplore(&memo, query.all_predicates());
  std::printf("memo: %d groups, %d entries\n%s\n", memo.num_groups(),
              memo.num_exprs(), memo.ToString().c_str());

  // Entry-induced estimation (Section 4.2) vs the full DP.
  AtomicSelectivityProvider fa_coupled(&matcher, &diff);
  OptimizerCoupledEstimator coupled(&query, &fa_coupled);
  AtomicSelectivityProvider fa_full(&matcher, &diff);
  GetSelectivity full(&query, &fa_full);

  std::printf("%-10s %14s %14s %12s\n", "sub-plan", "coupled est.",
              "full-DP est.", "true");
  for (PredSet plan : SubPlanFamily(query)) {
    const double cross = CrossProductCardinality(catalog, query, plan);
    std::printf("%#-10x %14.1f %14.1f %12.0f\n", plan,
                coupled.TryEstimate(plan).value().selectivity * cross,
                full.Compute(plan).selectivity * cross,
                evaluator.Cardinality(query, plan));
  }
  std::printf(
      "\ncoupled search considered %llu memo entries; the full DP scored "
      "%llu atomic decompositions.\n",
      static_cast<unsigned long long>(coupled.entries_considered()),
      static_cast<unsigned long long>(full.stats().atomic_considered));
  std::printf("\nbest decomposition chosen by the full DP:\n%s",
              full.Explain(query.all_predicates()).c_str());
  return 0;
}
