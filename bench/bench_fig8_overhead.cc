// Figure 8 (a, b, c): execution time of getSelectivity (GS-Diff) per
// query, split into decomposition analysis and histogram manipulation
// (the provider's Estimate calls with the chosen SITs), as the SIT pool
// grows. Analysis is the rest of Compute()'s wall time: search, memo,
// enumeration, view matching and ranking. Uses google-benchmark for the
// measurements and prints the paper-style split table at the end.
//
// Paper's shape: single-digit milliseconds per query, growing mildly
// with the pool size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench_common.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_matcher.h"

using namespace condsel;        // NOLINT: bench brevity
using namespace condsel::bench; // NOLINT: bench brevity

namespace {

struct Setup {
  std::unique_ptr<BenchEnv> env;
  std::map<int, std::vector<Query>> workloads;      // by join count
  std::map<std::pair<int, int>, SitPool> pools;     // (joins, pool J)
  // (joins, pool J) -> measured ms split, filled by the benchmark.
  std::map<std::pair<int, int>, std::pair<double, double>> split_ms;
};

Setup& GetSetup() {
  static Setup* setup = [] {
    auto* s = new Setup();
    s->env = std::make_unique<BenchEnv>();
    const int num_queries = EnvInt("CONDSEL_QUERIES", 8);
    for (int j : {3, 5, 7}) {
      s->workloads[j] = s->env->Workload(j, num_queries);
      for (int pool_j = 0; pool_j <= j; pool_j += (pool_j < 2 ? 1 : 2)) {
        s->pools.emplace(std::make_pair(j, pool_j),
                         GenerateSitPool(s->workloads[j], pool_j,
                                         *s->env->builder));
      }
    }
    return s;
  }();
  return *setup;
}

// One iteration = full getSelectivity over every sub-plan of every
// workload query (fresh memo per query, as the optimizer would see).
void BM_GetSelectivity(benchmark::State& state) {
  Setup& s = GetSetup();
  const int j = static_cast<int>(state.range(0));
  const int pool_j = static_cast<int>(state.range(1));
  const auto key = std::make_pair(j, pool_j);
  if (s.pools.find(key) == s.pools.end()) {
    state.SkipWithError("pool conditions on more joins than the queries");
    return;
  }
  const SitPool& pool = s.pools.at(key);
  const std::vector<Query>& workload = s.workloads.at(j);

  DiffError diff;
  double analysis = 0.0, histogram = 0.0;
  for (auto _ : state) {
    analysis = histogram = 0.0;
    for (const Query& q : workload) {
      SitMatcher matcher(&pool);
      matcher.BindQuery(&q);
      AtomicSelectivityProvider fa(&matcher, &diff);
      GetSelectivity gs(&q, &fa);
      gs.Compute(q.all_predicates());
      analysis += gs.stats().analysis_seconds;
      histogram += gs.stats().histogram_seconds;
    }
    benchmark::DoNotOptimize(analysis);
  }
  const double per_query = 1000.0 / static_cast<double>(workload.size());
  s.split_ms[key] = {analysis * per_query, histogram * per_query};
  state.counters["analysis_ms_per_query"] = analysis * per_query;
  state.counters["histogram_ms_per_query"] = histogram * per_query;
  state.counters["pool_size"] = pool.size();
}

}  // namespace

BENCHMARK(BM_GetSelectivity)
    ->ArgsProduct({{3, 5, 7}, {0, 1, 2, 4, 6}})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Paper-style summary (skipping (j, pool) combos that don't exist —
  // pools can't condition on more joins than the queries have).
  Setup& s = GetSetup();
  std::printf("\nFigure 8: GS-Diff time per query (ms), split\n\n");
  std::vector<std::string> header = {"workload", "pool", "#SITs",
                                     "analysis", "histogram", "total"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, split] : s.split_ms) {
    rows.push_back({std::to_string(key.first) + "-way",
                    "J" + std::to_string(key.second),
                    std::to_string(s.pools.at(key).size()),
                    FormatDouble(split.first, 3),
                    FormatDouble(split.second, 3),
                    FormatDouble(split.first + split.second, 3)});
  }
  PrintTable(header, rows);
  std::printf(
      "\nExpected shape: (sub-)millisecond cost per query, scaling\n"
      "gracefully with the pool size and the join count. Analysis,\n"
      "everything outside the Estimate calls, dominates; each DP\n"
      "estimates a (factor, SITs) pair once. The paper's absolute\n"
      "budget (<6ms/query) holds with a wide margin.\n");
  benchmark::Shutdown();
  return 0;
}
