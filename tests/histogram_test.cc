// Tests for histogram construction and range/equality estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "condsel/common/rng.h"
#include "condsel/common/zipf.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/histogram.h"

namespace condsel {
namespace {

std::vector<int64_t> UniformValues(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(0, domain - 1);
  return v;
}

std::vector<int64_t> ZipfValues(size_t n, int64_t domain, double theta,
                                uint64_t seed) {
  Rng rng(seed);
  ZipfSampler z(domain, theta);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = z.Next(rng);
  return v;
}

// Exact fraction of values in [lo, hi], relative to `total`.
double ExactRangeSel(const std::vector<int64_t>& values, double total,
                     int64_t lo, int64_t hi) {
  size_t c = 0;
  for (int64_t v : values) c += (v >= lo && v <= hi);
  return static_cast<double>(c) / total;
}

TEST(HistogramTest, EmptyInput) {
  const Histogram h = BuildMaxDiff({}, 0.0, 10);
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.RangeSelectivity(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(h.EqualsSelectivity(5), 0.0);
  EXPECT_DOUBLE_EQ(h.total_frequency(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  const Histogram h = BuildMaxDiff({7, 7, 7}, 3.0, 10);
  EXPECT_EQ(h.num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h.RangeSelectivity(7, 7), 1.0);
  EXPECT_DOUBLE_EQ(h.RangeSelectivity(0, 6), 0.0);
  EXPECT_DOUBLE_EQ(h.EqualsSelectivity(7), 1.0);
}

TEST(HistogramTest, NullsDiluteFrequencies) {
  // 3 values out of a 6-tuple source: total frequency is 0.5.
  const Histogram h = BuildMaxDiff({1, 2, 3}, 6.0, 10);
  EXPECT_NEAR(h.total_frequency(), 0.5, 1e-12);
  EXPECT_NEAR(h.RangeSelectivity(1, 3), 0.5, 1e-12);
}

TEST(HistogramTest, ExactWhenBucketsCoverAllDistincts) {
  // With enough buckets every distinct value gets its own bucket and all
  // estimates are exact.
  const std::vector<int64_t> vals = {1, 1, 2, 5, 5, 5, 9, 12, 12, 20};
  const Histogram h = BuildMaxDiff(vals, 10.0, 64);
  for (int64_t lo = 0; lo <= 21; ++lo) {
    for (int64_t hi = lo; hi <= 21; ++hi) {
      EXPECT_NEAR(h.RangeSelectivity(lo, hi),
                  ExactRangeSel(vals, 10.0, lo, hi), 1e-12)
          << lo << ".." << hi;
    }
  }
  EXPECT_NEAR(h.EqualsSelectivity(5), 0.3, 1e-12);
  EXPECT_NEAR(h.TotalDistinct(), 6.0, 1e-12);
}

TEST(HistogramTest, FullDomainRangeIsTotalFrequency) {
  const auto vals = UniformValues(5000, 1000, 1);
  for (const HistogramType t :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth}) {
    const Histogram h = BuildHistogram(t, vals, 5000.0, 50);
    EXPECT_NEAR(h.RangeSelectivity(0, 999), 1.0, 1e-9)
        << HistogramTypeName(t);
    EXPECT_NEAR(h.total_frequency(), 1.0, 1e-9);
  }
}

TEST(HistogramTest, BucketBudgetRespected) {
  const auto vals = UniformValues(10000, 5000, 2);
  for (const HistogramType t :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth}) {
    const Histogram h = BuildHistogram(t, vals, 10000.0, 20);
    EXPECT_LE(h.num_buckets(), 20u) << HistogramTypeName(t);
    EXPECT_GE(h.num_buckets(), 2u) << HistogramTypeName(t);
  }
}

TEST(HistogramTest, BucketsSortedAndDisjoint) {
  const auto vals = ZipfValues(20000, 2000, 1.0, 3);
  for (const HistogramType t :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth}) {
    const Histogram h = BuildHistogram(t, vals, 20000.0, 100);
    const auto& b = h.buckets();
    for (size_t i = 1; i < b.size(); ++i) {
      EXPECT_LT(b[i - 1].hi, b[i].lo) << HistogramTypeName(t);
    }
  }
}

TEST(HistogramTest, MaxDiffIsolatesHeavyHitters) {
  // One huge spike amid a uniform sea: MaxDiff should put the spike in
  // its own bucket, making its equality estimate (nearly) exact.
  std::vector<int64_t> vals = UniformValues(1000, 1000, 4);
  for (int i = 0; i < 4000; ++i) vals.push_back(500);
  const Histogram h = BuildMaxDiff(vals, 5000.0, 30);
  EXPECT_NEAR(h.EqualsSelectivity(500), 4000.0 / 5000.0, 0.05);
}

TEST(HistogramTest, RangeAccuracyOnSkewedData) {
  const auto vals = ZipfValues(50000, 1000, 1.2, 5);
  const Histogram h = BuildMaxDiff(vals, 50000.0, 200);
  // Estimates over moderately wide ranges should land within a couple of
  // percentage points of truth even under heavy skew.
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 9}, {0, 49}, {10, 99}, {100, 499}, {500, 999}}) {
    EXPECT_NEAR(h.RangeSelectivity(lo, hi),
                ExactRangeSel(vals, 50000.0, lo, hi), 0.03)
        << lo << ".." << hi;
  }
}

TEST(HistogramTest, EquiDepthBalancesMass) {
  const auto vals = ZipfValues(30000, 500, 1.0, 6);
  const Histogram h = BuildEquiDepth(vals, 30000.0, 20);
  double max_f = 0.0;
  for (const Bucket& b : h.buckets()) max_f = std::max(max_f, b.frequency);
  // No bucket should carry more than a few times the average mass, except
  // when a single value dominates. Zipf(1.0) rank-0 mass over 500 values
  // is ~15%, so allow that.
  EXPECT_LE(max_f, 0.25);
}

TEST(HistogramTest, EndBiasedIsolatesHeavyHitters) {
  // Two spikes in a uniform sea: end-biased gives them singleton buckets,
  // so their equality estimates are exact even at a tiny budget.
  std::vector<int64_t> vals = UniformValues(2000, 1000, 12);
  for (int i = 0; i < 3000; ++i) vals.push_back(250);
  for (int i = 0; i < 2000; ++i) vals.push_back(750);
  const double total = static_cast<double>(vals.size());
  const Histogram h = BuildEndBiased(vals, total, 10);
  EXPECT_NEAR(h.EqualsSelectivity(250), 3000.0 / total, 0.02);
  EXPECT_NEAR(h.EqualsSelectivity(750), 2000.0 / total, 0.02);
  EXPECT_LE(h.num_buckets(), 10u);
}

TEST(HistogramTest, DomainEndpoints) {
  const Histogram h = BuildMaxDiff({5, 8, 20}, 3.0, 8);
  const auto [lo, hi] = h.Domain();
  EXPECT_EQ(lo, 5);
  EXPECT_EQ(hi, 20);
}

TEST(HistogramTest, DistinctCountsHelper) {
  const auto runs = DistinctCounts({1, 1, 2, 2, 2, 7});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (std::pair<int64_t, uint64_t>{1, 2}));
  EXPECT_EQ(runs[1], (std::pair<int64_t, uint64_t>{2, 3}));
  EXPECT_EQ(runs[2], (std::pair<int64_t, uint64_t>{7, 1}));
}

TEST(HistogramTest, EveryBuilderHandlesDegenerateInputs) {
  for (HistogramType type :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth, HistogramType::kEndBiased}) {
    // Empty column.
    const Histogram empty = BuildHistogram(type, {}, 0.0, 8);
    EXPECT_TRUE(empty.empty());
    EXPECT_DOUBLE_EQ(empty.RangeSelectivity(-100, 100), 0.0);
    // Empty column of a non-empty source (all NULLs).
    const Histogram nulls = BuildHistogram(type, {}, 50.0, 8);
    EXPECT_DOUBLE_EQ(nulls.RangeSelectivity(-100, 100), 0.0);
    // Single distinct value.
    const Histogram single = BuildHistogram(type, {42, 42, 42, 42}, 4.0, 8);
    EXPECT_EQ(single.num_buckets(), 1u);
    EXPECT_DOUBLE_EQ(single.EqualsSelectivity(42), 1.0);
    // Bucket budget far above the distinct count: exact, within budget.
    const Histogram wide =
        BuildHistogram(type, {1, 2, 2, 3}, 4.0, 1000);
    EXPECT_LE(wide.num_buckets(), 3u);
    EXPECT_NEAR(wide.RangeSelectivity(1, 3), 1.0, 1e-12);
    EXPECT_NEAR(wide.EqualsSelectivity(2), 0.5, 1e-12);
    // Budget of one: everything in a single bucket, mass conserved.
    const Histogram one = BuildHistogram(type, {1, 5, 9}, 3.0, 1);
    EXPECT_NEAR(one.total_frequency(), 1.0, 1e-12);
  }
}

// The per-type value-vector builder for `type`.
Histogram BuildFromValues(HistogramType type, std::vector<int64_t> values,
                          double source_cardinality, int max_buckets) {
  switch (type) {
    case HistogramType::kMaxDiff:
      return BuildMaxDiff(values, source_cardinality, max_buckets);
    case HistogramType::kEquiDepth:
      return BuildEquiDepth(values, source_cardinality, max_buckets);
    case HistogramType::kEquiWidth:
      return BuildEquiWidth(values, source_cardinality, max_buckets);
    case HistogramType::kEndBiased:
      return BuildEndBiased(values, source_cardinality, max_buckets);
  }
  return Histogram();
}

ValueRuns SortedRuns(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return DistinctCounts(values);
}

void ExpectSameBits(double got, double want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << got << " vs " << want;
}

TEST(HistogramTest, RunsEntryPointEqualsEveryValueBuilder) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    std::vector<int64_t> values;
    double source_cardinality;
    int max_buckets;
  };
  std::vector<Case> cases = {
      {{}, 0.0, 8},                     // empty
      {{}, 50.0, 8},                    // NULL-only source
      {{42, 42, 42}, 5.0, 8},           // one distinct value
      {{kMax, kMin, 0, kMax}, 4.0, 3},  // the int64 extremes
      {{kMin, kMax}, 2.0, 1},
      {{3, 1, 2, 2, 9}, 5.0, 1},    // a budget of one bucket
      {{3, 1, 2, 2, 9}, 7.0, 100},  // fewer distinct values than buckets
  };
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.NextInRange(1, 3000));
    const int64_t domain = rng.NextInRange(1, 800);
    std::vector<int64_t> values =
        seed % 2 == 0 ? UniformValues(n, domain, seed)
                      : ZipfValues(n, domain, 1.0, seed);
    const double nulls = static_cast<double>(rng.NextInRange(0, 50));
    cases.push_back({std::move(values), static_cast<double>(n) + nulls,
                     static_cast<int>(rng.NextInRange(1, 200))});
  }
  for (HistogramType type :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth, HistogramType::kEndBiased}) {
    for (const Case& c : cases) {
      const Histogram got = BuildHistogramFromRuns(
          type, SortedRuns(c.values), c.source_cardinality, c.max_buckets);
      const Histogram want = BuildFromValues(
          type, c.values, c.source_cardinality, c.max_buckets);
      ExpectSameBits(got.source_cardinality(), want.source_cardinality());
      ASSERT_EQ(got.num_buckets(), want.num_buckets())
          << HistogramTypeName(type);
      for (size_t b = 0; b < got.num_buckets(); ++b) {
        EXPECT_EQ(got.buckets()[b].lo, want.buckets()[b].lo);
        EXPECT_EQ(got.buckets()[b].hi, want.buckets()[b].hi);
        ExpectSameBits(got.buckets()[b].frequency,
                       want.buckets()[b].frequency);
        ExpectSameBits(got.buckets()[b].distinct, want.buckets()[b].distinct);
      }
    }
  }
}

TEST(HistogramTest, BothEntryPointsCheckSourceCardinality) {
  for (HistogramType type :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth, HistogramType::kEndBiased}) {
    // Five values cannot come from a source of four tuples.
    EXPECT_DEATH(BuildHistogramFromRuns(type, {{1, 3}, {2, 2}}, 4.0, 8),
                 "source_cardinality");
    EXPECT_DEATH(BuildFromValues(type, {1, 1, 1, 2, 2}, 4.0, 8),
                 "source_cardinality");
  }
}

TEST(HistogramTest, ExtremeDomainDoesNotOverflow) {
  // A column spanning almost the whole int64 domain: bucket-width
  // arithmetic must not overflow (equi-width computes hi - lo + 1).
  const int64_t lo = std::numeric_limits<int64_t>::min() + 1;
  const int64_t hi = std::numeric_limits<int64_t>::max() - 1;
  for (HistogramType type :
       {HistogramType::kMaxDiff, HistogramType::kEquiDepth,
        HistogramType::kEquiWidth, HistogramType::kEndBiased}) {
    const Histogram h = BuildHistogram(type, {lo, 0, hi}, 3.0, 2);
    EXPECT_NEAR(h.total_frequency(), 1.0, 1e-12);
    const double sel = h.RangeSelectivity(lo, hi);
    EXPECT_TRUE(std::isfinite(sel));
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
}

// Parameterized sweep: every builder must reproduce total mass and stay
// within budget across data shapes.
class BuilderSweepTest
    : public ::testing::TestWithParam<std::tuple<HistogramType, double, int>> {
};

TEST_P(BuilderSweepTest, MassConservation) {
  const auto [type, theta, buckets] = GetParam();
  const auto vals = ZipfValues(20000, 1500, theta, 99);
  const Histogram h = BuildHistogram(type, vals, 20000.0, buckets);
  EXPECT_LE(static_cast<int>(h.num_buckets()), buckets);
  EXPECT_NEAR(h.total_frequency(), 1.0, 1e-9);
  // Partition property: disjoint ranges sum to the total.
  const double left = h.RangeSelectivity(0, 700);
  const double right = h.RangeSelectivity(701, 1499);
  EXPECT_NEAR(left + right, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuilderSweepTest,
    ::testing::Combine(::testing::Values(HistogramType::kMaxDiff,
                                         HistogramType::kEquiDepth,
                                         HistogramType::kEquiWidth,
                                         HistogramType::kEndBiased),
                       ::testing::Values(0.0, 0.5, 1.0, 1.5),
                       ::testing::Values(8, 50, 200)));

}  // namespace
}  // namespace condsel
