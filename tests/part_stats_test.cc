// Tests for partitioned statistics (catalog/part_stats.h): spec
// enumeration vs GenerateSitPool, single-part bit-identity, multi-part
// merge mass conservation, ApplyDelta's rebuilt/dropped/cross-table/
// reused accounting, merge-validation under kCorruptPartStats, and Audit
// failure modes.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/fault_injector.h"
#include "condsel/common/status.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/exec/evaluator.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Fa() { return {0, 0}; }
ColumnRef Fd() { return {0, 1}; }
ColumnRef Dpk() { return {1, 0}; }

std::vector<Query> Workload() {
  return {Query({Predicate::Join(Fd(), Dpk()),
                 Predicate::Filter(Fa(), 10, 60)})};
}

SitBuildOptions Options() { return {HistogramType::kMaxDiff, 64}; }

// F(a, d_id) split into `parts` sealed parts of `rows_per_part` rows
// (a = (row * 7) % 100, d_id = row % 10 — row-index driven, so the same
// total row count yields identical content regardless of partitioning),
// plus a 10-row single-part dimension D(pk, c).
Catalog MakeFactCatalog(int parts, int rows_per_part = 20) {
  Catalog catalog;
  Table fact = test::MakeTable("F", {"a", "d_id"}, {});
  int row = 0;
  for (int p = 0; p < parts; ++p) {
    for (int r = 0; r < rows_per_part; ++r, ++row) {
      fact.AppendRow({(row * 7) % 100, row % 10});
    }
    fact.SealTail();
  }
  catalog.AddTable(std::move(fact));
  std::vector<std::vector<int64_t>> dim_rows;
  for (int64_t i = 0; i < 10; ++i) dim_rows.push_back({i, i * 3});
  Table dim = test::MakeTable("D", {"pk", "c"}, dim_rows, {true, false});
  dim.SealTail();
  catalog.AddTable(std::move(dim));
  return catalog;
}

void ExpectSameHistogram(const Histogram& got, const Histogram& want) {
  EXPECT_EQ(got.source_cardinality(), want.source_cardinality());
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  for (size_t b = 0; b < got.num_buckets(); ++b) {
    EXPECT_EQ(got.buckets()[b].lo, want.buckets()[b].lo);
    EXPECT_EQ(got.buckets()[b].hi, want.buckets()[b].hi);
    EXPECT_EQ(got.buckets()[b].frequency, want.buckets()[b].frequency);
    EXPECT_EQ(got.buckets()[b].distinct, want.buckets()[b].distinct);
  }
}

void ExpectSamePool(const SitPool& got, const SitPool& want) {
  ASSERT_EQ(got.size(), want.size());
  for (SitId i = 0; i < got.size(); ++i) {
    const Sit& g = got.sit(i);
    const Sit& w = want.sit(i);
    EXPECT_EQ(g.attr, w.attr);
    EXPECT_EQ(g.expression, w.expression);
    EXPECT_EQ(g.diff, w.diff);
    ExpectSameHistogram(g.histogram, w.histogram);
    ASSERT_EQ(g.parts.size(), w.parts.size());
    for (size_t p = 0; p < g.parts.size(); ++p) {
      EXPECT_EQ(g.parts[p].part, w.parts[p].part);
      EXPECT_EQ(g.parts[p].generation, w.parts[p].generation);
      ExpectSameHistogram(g.parts[p].histogram, w.parts[p].histogram);
    }
  }
}

TEST(PartStatsSpecTest, EnumerationMatchesGenerateSitPoolIdByIdOrder) {
  Catalog catalog = MakeFactCatalog(1);
  CardinalityCache cache;
  Evaluator eval(&catalog, &cache);
  const SitBuilder builder(&eval, Options());
  const SitPool pool = GenerateSitPool(Workload(), 1, builder);
  const std::vector<SitSpec> specs = EnumerateSitSpecs(Workload(), 1);

  // 3 base histograms (F.a, F.d_id, D.pk) + the one filter attribute
  // (F.a) over the one join expression.
  ASSERT_EQ(specs.size(), 4u);
  ASSERT_EQ(pool.size(), static_cast<int32_t>(specs.size()));
  for (size_t i = 0; i < specs.size(); ++i) {
    const Sit& sit = pool.sit(static_cast<SitId>(i));
    EXPECT_EQ(specs[i].attr, sit.attr) << "spec " << i;
    EXPECT_EQ(specs[i].expression, sit.expression) << "spec " << i;
    EXPECT_EQ(specs[i].owner(), sit.attr.table);
  }
}

TEST(PartStatsMergeTest, SinglePartPoolIsBitIdenticalToUnpartitioned) {
  Catalog catalog = MakeFactCatalog(1);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  StatusOr<std::shared_ptr<const SitPool>> merged = maintainer.MergedPool();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  CardinalityCache cache;
  Evaluator eval(&catalog, &cache);
  const SitBuilder builder(&eval, Options());
  const SitPool reference = GenerateSitPool(Workload(), 1, builder);

  ASSERT_EQ(merged.value()->size(), reference.size());
  for (SitId i = 0; i < reference.size(); ++i) {
    const Sit& sit = merged.value()->sit(i);
    EXPECT_FALSE(sit.is_partitioned());
    EXPECT_EQ(sit.diff, reference.sit(i).diff);
    ExpectSameHistogram(sit.histogram, reference.sit(i).histogram);
  }

  // And bit-identical end to end: the estimator over the merged pool
  // reproduces the unpartitioned estimate exactly.
  const Query q = Workload()[0];
  SitPool merged_copy = *merged.value();
  Estimator a(&catalog, &merged_copy);
  Estimator b(&catalog, &reference);
  EXPECT_EQ(a.TryEstimateSelectivity(q).value(),
            b.TryEstimateSelectivity(q).value());
}

TEST(PartStatsMergeTest, PiecesConserveMassAndMatchFlatEstimates) {
  Catalog parted = MakeFactCatalog(3, 20);
  Catalog flat = MakeFactCatalog(1, 60);  // same 60 rows, one part

  PartStatsMaintainer maintainer(&parted, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  StatusOr<std::shared_ptr<const SitPool>> merged = maintainer.MergedPool();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  CardinalityCache cache;
  Evaluator eval(&flat, &cache);
  const SitBuilder builder(&eval, Options());
  const SitPool reference = GenerateSitPool(Workload(), 1, builder);

  ASSERT_EQ(merged.value()->size(), reference.size());
  for (SitId i = 0; i < reference.size(); ++i) {
    const Sit& sit = merged.value()->sit(i);
    if (sit.attr.table == 0) {
      // F-owned statistics carry one piece per F part; the piece
      // cardinalities sum to the global statistic's.
      ASSERT_EQ(sit.parts.size(), 3u);
      double mass = 0.0;
      for (const SitPart& piece : sit.parts) {
        mass += piece.histogram.source_cardinality();
      }
      EXPECT_DOUBLE_EQ(mass, reference.sit(i).histogram.source_cardinality());
      EXPECT_DOUBLE_EQ(sit.histogram.source_cardinality(),
                       reference.sit(i).histogram.source_cardinality());
    } else {
      // D has one part: its statistics pass through unpartitioned.
      EXPECT_FALSE(sit.is_partitioned());
    }
  }

  // Per-part histograms are exact at this scale (<= 20 distinct values a
  // part, 64 buckets), so the cardinality-weighted merge reproduces the
  // flat estimate up to floating-point rounding.
  const Query q = Workload()[0];
  SitPool merged_copy = *merged.value();
  Estimator a(&parted, &merged_copy);
  Estimator b(&flat, &reference);
  EXPECT_NEAR(a.TryEstimateSelectivity(q).value(),
              b.TryEstimateSelectivity(q).value(), 1e-9);
  for (PredSet p = 1; p < (1u << 2); ++p) {
    EXPECT_NEAR(a.TryEstimateSelectivity(q, p).value(),
                b.TryEstimateSelectivity(q, p).value(), 1e-9)
        << "subset " << p;
  }
}

TEST(PartStatsDeltaTest, InsertRebuildsOnlyTheNewPart) {
  Catalog catalog = MakeFactCatalog(3);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  const uint64_t gen0 = maintainer.stats_generation();
  std::vector<uint64_t> old_generations;
  for (size_t pi = 0; pi < catalog.table(0).num_parts(); ++pi) {
    old_generations.push_back(catalog.table(0).part(pi).generation());
  }

  DeltaBatch batch;
  batch.table = 0;
  batch.insert_rows = {{5, 5}, {12, 3}};
  StatusOr<DeltaReport> report = maintainer.ApplyDelta(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Exactly one new part built; the three old F entries and the D entry
  // survive untouched — the cost ∝ parts-touched property.
  EXPECT_EQ(report.value().rebuilt_parts.size(), 1u);
  EXPECT_TRUE(report.value().dropped_parts.empty());
  EXPECT_EQ(report.value().cross_table_pieces_rebuilt, 0);
  EXPECT_EQ(report.value().reused_entries, 4);
  EXPECT_GT(report.value().stats_generation, gen0);
  EXPECT_EQ(report.value().stats_generation, maintainer.stats_generation());
  ASSERT_EQ(catalog.table(0).num_parts(), 4u);
  for (size_t pi = 0; pi < old_generations.size(); ++pi) {
    EXPECT_EQ(catalog.table(0).part(pi).generation(), old_generations[pi]);
  }

  // Incremental maintenance converges to the full rebuild: a fresh
  // maintainer over the mutated catalog produces the same pool.
  StatusOr<std::shared_ptr<const SitPool>> incremental =
      maintainer.MergedPool();
  ASSERT_TRUE(incremental.ok());
  PartStatsMaintainer fresh(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(fresh.BuildAll().ok());
  StatusOr<std::shared_ptr<const SitPool>> rebuilt = fresh.MergedPool();
  ASSERT_TRUE(rebuilt.ok());
  ExpectSamePool(*incremental.value(), *rebuilt.value());
}

TEST(PartStatsDeltaTest, DeleteDropsTheEmptiedPartsEntry) {
  Catalog catalog = MakeFactCatalog(3);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  const PartId first = catalog.table(0).part(0).id();

  DeltaBatch batch;
  batch.table = 0;
  for (size_t r = 0; r < 20; ++r) batch.delete_rows.push_back(r);
  StatusOr<DeltaReport> report = maintainer.ApplyDelta(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report.value().dropped_parts.size(), 1u);
  EXPECT_EQ(report.value().dropped_parts[0], first);
  EXPECT_TRUE(report.value().rebuilt_parts.empty());
  EXPECT_EQ(maintainer.stats().FindEntry(0, first), nullptr);
  EXPECT_EQ(catalog.table(0).part_index(first), -1);

  StatusOr<std::shared_ptr<const SitPool>> merged = maintainer.MergedPool();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value()->sit(0).parts.size(), 2u);
}

TEST(PartStatsDeltaTest, PartialDeleteRebuildsThatPartInPlace) {
  Catalog catalog = MakeFactCatalog(3);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  const PartId first = catalog.table(0).part(0).id();
  const uint64_t old_generation = catalog.table(0).part(0).generation();

  DeltaBatch batch;
  batch.table = 0;
  batch.delete_rows = {0, 1, 2};
  StatusOr<DeltaReport> report = maintainer.ApplyDelta(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Same part id, bumped generation, entry re-stamped to match.
  ASSERT_EQ(report.value().rebuilt_parts.size(), 1u);
  EXPECT_EQ(report.value().rebuilt_parts[0], first);
  EXPECT_TRUE(report.value().dropped_parts.empty());
  EXPECT_EQ(report.value().reused_entries, 3);
  const PartStatsEntry* entry = maintainer.stats().FindEntry(0, first);
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->generation, old_generation);
  EXPECT_EQ(entry->generation, catalog.table(0).part(0).generation());
  EXPECT_DOUBLE_EQ(entry->rows, 17.0);
  EXPECT_TRUE(maintainer.stats().Audit(catalog).ok());
}

TEST(PartStatsDeltaTest, DimensionDeltaRefreshesCrossTableJoinPieces) {
  Catalog catalog = MakeFactCatalog(3);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  std::vector<uint64_t> fact_generations;
  for (size_t pi = 0; pi < catalog.table(0).num_parts(); ++pi) {
    fact_generations.push_back(catalog.table(0).part(pi).generation());
  }
  int cross_specs = 0;
  for (const SitSpec& spec : maintainer.stats().specs()) {
    if (spec.owner() == 0 && spec.References(1)) ++cross_specs;
  }
  ASSERT_GT(cross_specs, 0);

  DeltaBatch batch;
  batch.table = 1;
  batch.insert_rows = {{10, 30}};  // a new dimension key
  StatusOr<DeltaReport> report = maintainer.ApplyDelta(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // One new D part built; every F part's join pieces (owner F, expression
  // referencing D) refreshed in place without touching the parts
  // themselves; only the old D entry is reused as-is.
  EXPECT_EQ(report.value().rebuilt_parts.size(), 1u);
  EXPECT_EQ(report.value().cross_table_pieces_rebuilt, 3 * cross_specs);
  EXPECT_EQ(report.value().reused_entries, 1);
  for (size_t pi = 0; pi < fact_generations.size(); ++pi) {
    EXPECT_EQ(catalog.table(0).part(pi).generation(), fact_generations[pi]);
  }

  StatusOr<std::shared_ptr<const SitPool>> incremental =
      maintainer.MergedPool();
  ASSERT_TRUE(incremental.ok());
  PartStatsMaintainer fresh(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(fresh.BuildAll().ok());
  StatusOr<std::shared_ptr<const SitPool>> rebuilt = fresh.MergedPool();
  ASSERT_TRUE(rebuilt.ok());
  ExpectSamePool(*incremental.value(), *rebuilt.value());
}

TEST(PartStatsDeltaTest, RejectsMalformedBatches) {
  Catalog catalog = MakeFactCatalog(2);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  const uint64_t gen = maintainer.stats_generation();

  DeltaBatch bad_table;
  bad_table.table = 9;
  bad_table.insert_rows = {{1, 1}};
  EXPECT_EQ(maintainer.ApplyDelta(bad_table).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBatch ragged;
  ragged.table = 0;
  ragged.insert_rows = {{1, 2, 3}};  // F has two columns
  EXPECT_EQ(maintainer.ApplyDelta(ragged).status().code(),
            StatusCode::kInvalidArgument);

  DeltaBatch out_of_range;
  out_of_range.table = 0;
  out_of_range.delete_rows = {40};  // only 40 rows exist (0..39)
  EXPECT_EQ(maintainer.ApplyDelta(out_of_range).status().code(),
            StatusCode::kInvalidArgument);

  // Failed batches change nothing.
  EXPECT_EQ(maintainer.stats_generation(), gen);
  EXPECT_TRUE(maintainer.stats().Audit(catalog).ok());
}

TEST(PartStatsFaultTest, CorruptPartStatsFaultFailsMergeValidation) {
  Catalog catalog = MakeFactCatalog(2);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  ASSERT_TRUE(maintainer.MergedPool().ok());
  {
    ScopedFault fault(Fault::kCorruptPartStats);
    StatusOr<std::shared_ptr<const SitPool>> poisoned =
        maintainer.MergedPool();
    ASSERT_FALSE(poisoned.ok());
    EXPECT_EQ(poisoned.status().code(), StatusCode::kDataLoss);
  }
  // The stored entries themselves were never touched: with the fault
  // cleared, the merge succeeds again.
  EXPECT_TRUE(maintainer.MergedPool().ok());
}

TEST(PartStatsAuditTest, FlagsMissingStaleAndCorruptEntries) {
  Catalog catalog = MakeFactCatalog(2);
  PartStatsMaintainer maintainer(&catalog, Workload(), 1, Options());
  ASSERT_TRUE(maintainer.BuildAll().ok());
  const PartStatsSet& good = maintainer.stats();
  ASSERT_TRUE(good.Audit(catalog).ok());
  const PartId first = catalog.table(0).part(0).id();

  PartStatsSet missing = good;
  missing.RemoveEntry(0, first);
  EXPECT_EQ(missing.Audit(catalog).code(),
            StatusCode::kFailedPrecondition);

  PartStatsSet stale = good;
  PartStatsEntry entry = *good.FindEntry(0, first);
  entry.generation += 1;
  stale.PutEntry(entry);
  EXPECT_EQ(stale.Audit(catalog).code(), StatusCode::kFailedPrecondition);

  PartStatsSet corrupt = good;
  entry = *good.FindEntry(0, first);
  ASSERT_FALSE(entry.pieces.empty());
  entry.pieces[0] = Histogram(
      entry.pieces[0].buckets(), std::numeric_limits<double>::quiet_NaN());
  corrupt.PutEntry(entry);
  EXPECT_EQ(corrupt.Audit(catalog).code(), StatusCode::kDataLoss);
  EXPECT_EQ(corrupt.BuildMergedPool(catalog, 64).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace condsel
