// Estimate freshness under churn: delta-maintained part statistics vs a
// stale global pool.
//
// Two experiments:
//
//  error-vs-staleness   A fact ⋈ dimension database takes rounds of
//                       insert/delete churn whose inserts are drawn from
//                       a *shifted* distribution (hot values the initial
//                       data barely has). After each round we compare,
//                       against brute-force truth on the live data, the
//                       estimates from (a) the pool built before any
//                       churn (stale) and (b) the delta-maintained
//                       merged pool (fresh). Fresh error must stay flat;
//                       stale error must climb.
//
//  rebuild-cost         The same fixed insert batch is applied to tables
//                       of growing part counts (same rows per part).
//                       ApplyDelta's wall time tracks the parts it
//                       touched (one new part plus nothing else), while
//                       BuildAll's tracks the whole table — the cost ∝
//                       parts-touched property.
//
// Scale knobs: CONDSEL_STALENESS_PARTS (default 8),
// CONDSEL_STALENESS_ROWS (rows per part, default 250),
// CONDSEL_STALENESS_ROUNDS (churn rounds, default 8).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/exec/evaluator.h"

namespace condsel {
namespace bench {
namespace {

constexpr int kDimRows = 20;

// F(a, d_id) in `parts` sealed parts of `rows_per_part` rows each, plus
// a dimension D(pk, c). Initial F.a mass sits in [0, 700): the churn
// shifts it toward [850, 1000) so stale statistics go wrong where the
// hot-range query looks.
Catalog MakeChurnCatalog(int parts, int rows_per_part) {
  Catalog catalog;
  TableSchema fact_schema;
  fact_schema.name = "F";
  for (const char* name : {"a", "d_id"}) {
    ColumnSchema cs;
    cs.name = name;
    cs.min_value = 0;
    cs.max_value = 1000;
    fact_schema.columns.push_back(cs);
  }
  Table fact(fact_schema);
  int row = 0;
  for (int p = 0; p < parts; ++p) {
    for (int r = 0; r < rows_per_part; ++r, ++row) {
      fact.AppendRow({(row * 97) % 700, row % kDimRows});
    }
    fact.SealTail();
  }
  catalog.AddTable(std::move(fact));

  TableSchema dim_schema;
  dim_schema.name = "D";
  for (const char* name : {"pk", "c"}) {
    ColumnSchema cs;
    cs.name = name;
    cs.is_key = name[0] == 'p';
    cs.min_value = 0;
    cs.max_value = 1000;
    dim_schema.columns.push_back(cs);
  }
  Table dim(dim_schema);
  for (int64_t i = 0; i < kDimRows; ++i) dim.AppendRow({i, (i * 7) % 100});
  dim.SealTail();
  catalog.AddTable(std::move(dim));
  return catalog;
}

std::vector<Query> ChurnWorkload() {
  const ColumnRef fa{0, 0};
  const ColumnRef fd{0, 1};
  const ColumnRef dpk{1, 0};
  return {
      // The hot range the churn floods.
      Query({Predicate::Join(fd, dpk), Predicate::Filter(fa, 850, 999)}),
      // The cold range the churn dilutes.
      Query({Predicate::Join(fd, dpk), Predicate::Filter(fa, 0, 99)}),
      // Join-only: sensitive to the d_id skew the churn introduces.
      Query({Predicate::Join(fd, dpk)}),
      // Filter-only on the shifting attribute.
      Query({Predicate::Filter(fa, 700, 999)}),
  };
}

DeltaBatch ChurnBatch(int round, int batch_rows) {
  DeltaBatch batch;
  batch.table = 0;
  for (int i = 0; i < batch_rows; ++i) {
    const int64_t a = 850 + ((round * 131 + i * 37) % 150);
    const int64_t d = (round + i) % 3;  // skew toward three hot keys
    batch.insert_rows.push_back({a, d});
  }
  if (round % 3 == 2) {
    // Periodically erode the oldest rows so deletes (and part drops,
    // eventually) are part of the measured path.
    for (size_t r = 0; r < 25; ++r) batch.delete_rows.push_back(r);
  }
  return batch;
}

double MeanAbsError(const Catalog& catalog, const SitPool& pool,
                    const std::vector<Query>& workload) {
  // Fresh truth evaluator each call: the catalog mutates between rounds
  // and the cardinality cache is keyed by predicates alone.
  Evaluator truth(&catalog, nullptr);
  SitPool copy = pool;
  Estimator estimator(&catalog, &copy);
  double total = 0.0;
  for (const Query& q : workload) {
    const double actual = truth.TrueSelectivity(q, q.all_predicates());
    const StatusOr<double> estimate = estimator.TryEstimateSelectivity(q);
    if (!estimate.ok()) {
      std::fprintf(stderr, "estimate failed: %s\n",
                   estimate.status().ToString().c_str());
      std::exit(1);
    }
    total += std::abs(estimate.value() - actual);
  }
  return total / static_cast<double>(workload.size());
}

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace
}  // namespace bench
}  // namespace condsel

int main() {
  using namespace condsel;         // NOLINT: bench brevity
  using namespace condsel::bench;  // NOLINT: bench brevity
  using Clock = std::chrono::steady_clock;

  const int parts = EnvInt("CONDSEL_STALENESS_PARTS", 8);
  const int rows_per_part = EnvInt("CONDSEL_STALENESS_ROWS", 250);
  const int rounds = EnvInt("CONDSEL_STALENESS_ROUNDS", 8);
  const int batch_rows = EnvInt("CONDSEL_STALENESS_BATCH", 100);
  const SitBuildOptions options{HistogramType::kMaxDiff, 64};
  const std::vector<Query> workload = ChurnWorkload();

  // --- error vs staleness -------------------------------------------------
  Catalog catalog = MakeChurnCatalog(parts, rows_per_part);
  PartStatsMaintainer maintainer(&catalog, workload, 1, options);
  if (!maintainer.BuildAll().ok()) {
    std::fprintf(stderr, "BuildAll failed\n");
    return 1;
  }
  // The pool frozen before any churn: what a deployment that never
  // refreshes statistics would keep serving.
  const SitPool stale_pool = *maintainer.MergedPool().value();

  std::printf("%-6s %12s %12s %10s %10s %8s\n", "round", "stale_err",
              "fresh_err", "rebuilt", "reused", "ms");
  for (int round = 0; round <= rounds; ++round) {
    double delta_seconds = 0.0;
    int parts_touched = 0, reused = 0;
    if (round > 0) {
      const DeltaBatch batch = ChurnBatch(round, batch_rows);
      const auto t0 = Clock::now();
      const StatusOr<DeltaReport> report = maintainer.ApplyDelta(batch);
      delta_seconds = Seconds(t0, Clock::now());
      if (!report.ok()) {
        std::fprintf(stderr, "ApplyDelta failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      parts_touched = static_cast<int>(report.value().rebuilt_parts.size() +
                                       report.value().dropped_parts.size());
      reused = report.value().reused_entries;
    }
    const SitPool fresh_pool = *maintainer.MergedPool().value();
    const double stale_err = MeanAbsError(catalog, stale_pool, workload);
    const double fresh_err = MeanAbsError(catalog, fresh_pool, workload);
    std::printf("%-6d %12.6f %12.6f %10d %10d %8.3f\n", round, stale_err,
                fresh_err, parts_touched, reused, delta_seconds * 1000.0);
  }

  // --- rebuild cost vs parts touched --------------------------------------
  // The same one-batch delta against tables of growing part counts: the
  // delta cost should stay flat (it touches one new part) while the full
  // rebuild cost grows with the table.
  std::printf("\n%-8s %10s %14s %14s %10s\n", "parts", "rows",
              "build_all(ms)", "delta(ms)", "touched");
  for (const int p : {2, 4, 8, 16}) {
    Catalog scaled = MakeChurnCatalog(p, rows_per_part);
    PartStatsMaintainer scaled_maintainer(&scaled, workload, 1, options);
    const auto b0 = Clock::now();
    if (!scaled_maintainer.BuildAll().ok()) {
      std::fprintf(stderr, "BuildAll failed at %d parts\n", p);
      return 1;
    }
    const double build_seconds = Seconds(b0, Clock::now());

    const DeltaBatch batch = ChurnBatch(1, batch_rows);
    const auto d0 = Clock::now();
    const StatusOr<DeltaReport> report = scaled_maintainer.ApplyDelta(batch);
    const double delta_seconds = Seconds(d0, Clock::now());
    if (!report.ok()) {
      std::fprintf(stderr, "ApplyDelta failed at %d parts\n", p);
      return 1;
    }
    const int touched = static_cast<int>(report.value().rebuilt_parts.size() +
                                         report.value().dropped_parts.size());
    std::printf("%-8d %10zu %14.3f %14.3f %10d\n", p,
                scaled.table(0).num_rows(), build_seconds * 1000.0,
                delta_seconds * 1000.0, touched);
  }
  return 0;
}
