// Figure 6: efficiency of GS vs GVM, measured — as in the paper — by the
// average number of view-matching calls consumed per query when the
// optimizer requests an estimate for every sub-plan. getSelectivity
// memoizes across sub-plan requests of the same query; GVM re-runs its
// greedy procedure from scratch on each request.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "condsel/harness/metrics.h"

using namespace condsel;        // NOLINT: bench brevity
using namespace condsel::bench; // NOLINT: bench brevity

int main() {
  BenchEnv env;
  const int num_queries = EnvInt("CONDSEL_QUERIES", 20);

  std::printf("\nFigure 6: avg view-matching calls per query\n\n");
  std::vector<std::string> header = {"workload", "#sub-plans", "GS calls",
                                     "GVM calls", "GVM/GS"};
  std::vector<std::vector<std::string>> rows;

  for (int j = 3; j <= 7; ++j) {
    const std::vector<Query> workload = env.Workload(j, num_queries);
    const SitPool pool = GenerateSitPool(workload, j, *env.builder);
    Runner runner(&env.catalog, env.evaluator.get());

    double subplans = 0.0;
    for (const Query& q : workload) {
      subplans += static_cast<double>(SubPlanFamily(q).size());
    }
    subplans /= static_cast<double>(workload.size());

    const WorkloadRunResult gs =
        runner.Run(workload, pool, Technique::kGsNInd);
    const WorkloadRunResult gvm =
        runner.Run(workload, pool, Technique::kGvm);
    const double ratio =
        gvm.avg_matcher_calls / std::max(1.0, gs.avg_matcher_calls);
    rows.push_back(
        {std::to_string(j) + "-way", FormatDouble(subplans, 1),
         FormatDouble(gs.avg_matcher_calls, 1),
         FormatDouble(gvm.avg_matcher_calls, 1),
         FormatDouble(ratio, 2)});
  }
  PrintTable(header, rows);
  std::printf(
      "\nExpected shape: GVM's per-request greedy re-computation costs a\n"
      "multiple of getSelectivity's memoized search, growing with the\n"
      "number of sub-plans per query.\n");
  return 0;
}
