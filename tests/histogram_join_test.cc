// Tests for the histogram equi-join of Section 3.3.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "condsel/common/numeric.h"
#include "condsel/common/rng.h"
#include "condsel/common/zipf.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/histogram_join.h"

namespace condsel {
namespace {

// Exact Sel(x=y) over the cross product of two multisets.
double ExactJoinSel(const std::vector<int64_t>& a,
                    const std::vector<int64_t>& b) {
  double matches = 0.0;
  for (int64_t x : a) {
    for (int64_t y : b) matches += (x == y);
  }
  return matches / (static_cast<double>(a.size()) *
                    static_cast<double>(b.size()));
}

// The sort-based join the linear merge replaced, kept as the oracle: it
// collects both sides' bucket boundaries, sorts and deduplicates them,
// and walks the spans between consecutive cuts. Its b.hi + 1 overflows on
// a bucket ending at INT64_MAX, so inputs to it stay far from the limits.
struct OracleSlice {
  double frequency = 0.0;
  double distinct = 0.0;
};

OracleSlice OracleSliceBucket(const Bucket& b, int64_t lo, int64_t hi) {
  OracleSlice s;
  const int64_t olo = std::max(lo, b.lo);
  const int64_t ohi = std::min(hi, b.hi);
  if (olo > ohi) return s;
  const double frac = static_cast<double>(ohi - olo + 1) / b.Width();
  s.frequency = b.frequency * frac;
  s.distinct = b.distinct * frac;
  return s;
}

JoinEstimate SortedCutJoin(const Histogram& h1, const Histogram& h2) {
  JoinEstimate out;
  if (h1.empty() || h2.empty()) {
    out.result = Histogram({}, 0.0);
    return out;
  }
  std::vector<int64_t> cuts;
  for (const Histogram* h : {&h1, &h2}) {
    for (const Bucket& b : h->buckets()) {
      cuts.push_back(b.lo);
      cuts.push_back(b.hi + 1);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<Bucket> result_buckets;
  double sel = 0.0;
  size_t i1 = 0, i2 = 0;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    const int64_t lo = cuts[k];
    const int64_t hi = cuts[k + 1] - 1;
    while (i1 < h1.num_buckets() && h1.buckets()[i1].hi < lo) ++i1;
    while (i2 < h2.num_buckets() && h2.buckets()[i2].hi < lo) ++i2;
    if (i1 >= h1.num_buckets() || i2 >= h2.num_buckets()) break;
    const Bucket& b1 = h1.buckets()[i1];
    const Bucket& b2 = h2.buckets()[i2];
    if (b1.lo > hi || b2.lo > hi) continue;

    const OracleSlice s1 = OracleSliceBucket(b1, lo, hi);
    const OracleSlice s2 = OracleSliceBucket(b2, lo, hi);
    const double dmax = std::max(s1.distinct, s2.distinct);
    if (dmax <= 0.0 || s1.frequency <= 0.0 || s2.frequency <= 0.0) continue;
    const double contrib = s1.frequency * s2.frequency / dmax;
    sel += contrib;

    Bucket rb;
    rb.lo = lo;
    rb.hi = hi;
    rb.frequency = contrib;
    rb.distinct = std::min(s1.distinct, s2.distinct);
    result_buckets.push_back(rb);
  }

  out.selectivity = SanitizeSelectivity(sel);
  if (sel > 0.0) {
    for (Bucket& b : result_buckets) b.frequency /= sel;
  }
  const double join_card = SaturatingMultiply(
      SaturatingMultiply(h1.source_cardinality(), h2.source_cardinality()),
      out.selectivity);
  out.result = Histogram(std::move(result_buckets), join_card);
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// JoinHistograms(h1, h2) equals the oracle bit for bit: selectivity,
// source cardinality and every result bucket. The selectivity-only
// kernel JoinSelectivity(h1, h2) equals the oracle's selectivity.
::testing::AssertionResult MatchesOracle(const Histogram& h1,
                                         const Histogram& h2) {
  const JoinEstimate got = JoinHistograms(h1, h2);
  const double got_sel = JoinSelectivity(h1, h2);
  const JoinEstimate want = SortedCutJoin(h1, h2);
  const std::vector<Bucket>& gb = got.result.buckets();
  const std::vector<Bucket>& wb = want.result.buckets();
  if (SameBits(got.selectivity, want.selectivity) &&
      SameBits(got_sel, want.selectivity) &&
      SameBits(got.result.source_cardinality(),
               want.result.source_cardinality()) &&
      gb.size() == wb.size() &&
      (gb.empty() ||
       std::memcmp(gb.data(), wb.data(), gb.size() * sizeof(Bucket)) == 0)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "join of " << h1.ToString() << " with " << h2.ToString()
         << "\n  got  sel=" << got.selectivity << " (selectivity-only "
         << got_sel << ") " << got.result.ToString()
         << "\n  want sel=" << want.selectivity << " "
         << want.result.ToString();
}

TEST(HistogramJoinTest, EmptyInputsYieldZero) {
  const Histogram h1 = BuildMaxDiff({1, 2}, 2.0, 4);
  const Histogram empty = BuildMaxDiff({}, 0.0, 4);
  EXPECT_DOUBLE_EQ(JoinHistograms(h1, empty).selectivity, 0.0);
  EXPECT_DOUBLE_EQ(JoinHistograms(empty, h1).selectivity, 0.0);
}

TEST(HistogramJoinTest, DisjointDomainsYieldZero) {
  const Histogram h1 = BuildMaxDiff({1, 2, 3}, 3.0, 8);
  const Histogram h2 = BuildMaxDiff({10, 11, 12}, 3.0, 8);
  EXPECT_DOUBLE_EQ(JoinHistograms(h1, h2).selectivity, 0.0);
}

TEST(HistogramJoinTest, ExactOnPerValueBuckets) {
  // With one bucket per distinct value, the join estimate is exact.
  const std::vector<int64_t> a = {1, 1, 2, 3, 3, 3};
  const std::vector<int64_t> b = {1, 3, 3, 5};
  const Histogram h1 = BuildMaxDiff(a, 6.0, 64);
  const Histogram h2 = BuildMaxDiff(b, 4.0, 64);
  const JoinEstimate je = JoinHistograms(h1, h2);
  EXPECT_NEAR(je.selectivity, ExactJoinSel(a, b), 1e-12);
}

TEST(HistogramJoinTest, SymmetricSelectivity) {
  Rng rng(17);
  std::vector<int64_t> a(2000), b(1500);
  for (auto& v : a) v = rng.NextInRange(0, 99);
  for (auto& v : b) v = rng.NextInRange(0, 99);
  const Histogram h1 = BuildMaxDiff(a, 2000.0, 30);
  const Histogram h2 = BuildMaxDiff(b, 1500.0, 30);
  EXPECT_NEAR(JoinHistograms(h1, h2).selectivity,
              JoinHistograms(h2, h1).selectivity, 1e-12);
}

TEST(HistogramJoinTest, PkFkJoinAccuracy) {
  // Primary key side: each of 0..999 once. FK side: Zipf draws. True
  // selectivity of pk=fk is 1/1000 exactly (every FK value matches one
  // pk).
  std::vector<int64_t> pk(1000);
  for (size_t i = 0; i < pk.size(); ++i) pk[i] = static_cast<int64_t>(i);
  Rng rng(23);
  ZipfSampler z(1000, 1.0);
  std::vector<int64_t> fk(20000);
  for (auto& v : fk) v = z.Next(rng);
  const Histogram hp = BuildMaxDiff(pk, 1000.0, 200);
  const Histogram hf = BuildMaxDiff(fk, 20000.0, 200);
  const JoinEstimate je = JoinHistograms(hp, hf);
  EXPECT_NEAR(je.selectivity, 1.0 / 1000.0, 2e-4);
}

TEST(HistogramJoinTest, ResultHistogramNormalized) {
  const std::vector<int64_t> a = {1, 1, 2, 3, 3, 3};
  const std::vector<int64_t> b = {1, 3, 3, 5};
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 6.0, 64),
                                         BuildMaxDiff(b, 4.0, 64));
  EXPECT_NEAR(je.result.total_frequency(), 1.0, 1e-12);
  // Exact result distribution: matches at 1 (2*1=2 tuples) and 3 (3*2=6):
  // P(1) = 0.25, P(3) = 0.75.
  EXPECT_NEAR(je.result.RangeSelectivity(1, 1), 0.25, 1e-12);
  EXPECT_NEAR(je.result.RangeSelectivity(3, 3), 0.75, 1e-12);
  // Estimated join cardinality: sel * |A| * |B| = (8/24) * 24 = 8.
  EXPECT_NEAR(je.result.source_cardinality(), 8.0, 1e-9);
}

TEST(HistogramJoinTest, ResultHistogramEstimatesPostJoinFilter) {
  // Example 3's pattern: estimate x=y, then a range over the join attr.
  Rng rng(31);
  std::vector<int64_t> a(5000), b(5000);
  ZipfSampler z(200, 1.0);
  for (auto& v : a) v = z.Next(rng);
  for (auto& v : b) v = rng.NextInRange(0, 199);
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 5000.0, 200),
                                         BuildMaxDiff(b, 5000.0, 200));
  // Exact: count matches with value <= 9 over all matches.
  double all = 0.0, low = 0.0;
  std::vector<double> ca(200, 0), cb(200, 0);
  for (int64_t v : a) ++ca[static_cast<size_t>(v)];
  for (int64_t v : b) ++cb[static_cast<size_t>(v)];
  for (size_t v = 0; v < 200; ++v) {
    all += ca[v] * cb[v];
    if (v <= 9) low += ca[v] * cb[v];
  }
  EXPECT_NEAR(je.result.RangeSelectivity(0, 9), low / all, 0.03);
}

TEST(HistogramJoinTest, UniformUniformMatchesAnalyticValue) {
  // Two uniform columns over the same domain D: Sel(x=y) ~ 1/|D|.
  Rng rng(41);
  std::vector<int64_t> a(10000), b(10000);
  for (auto& v : a) v = rng.NextInRange(0, 499);
  for (auto& v : b) v = rng.NextInRange(0, 499);
  const JoinEstimate je = JoinHistograms(BuildMaxDiff(a, 10000.0, 50),
                                         BuildMaxDiff(b, 10000.0, 50));
  EXPECT_NEAR(je.selectivity, 1.0 / 500.0, 3e-4);
}

TEST(HistogramJoinTest, ExtremeBoundsDoNotOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // One bucket wider than 2^63 values joined with itself: the slice is
  // the whole bucket, so Sel = f * f / d = 1 / 1000.
  const Histogram wide({Bucket{kMin / 2 - 10, kMax / 2 + 10, 1.0, 1000.0}},
                       1000.0);
  const JoinEstimate self = JoinHistograms(wide, wide);
  EXPECT_DOUBLE_EQ(self.selectivity, 0.001);
  EXPECT_TRUE(SameBits(JoinSelectivity(wide, wide), self.selectivity));
  ASSERT_EQ(self.result.num_buckets(), 1u);
  EXPECT_EQ(self.result.buckets()[0].lo, kMin / 2 - 10);
  EXPECT_EQ(self.result.buckets()[0].hi, kMax / 2 + 10);

  // An open-ended bucket ends at INT64_MAX. Its width rounds to the same
  // double as one ending a value earlier, so the join is the same.
  const Histogram probe({Bucket{0, 20, 1.0, 21.0}}, 21.0);
  const auto with_last_hi = [](int64_t hi) {
    return Histogram({Bucket{0, 9, 0.3, 10.0}, Bucket{10, hi, 0.7, 50.0}},
                     100.0);
  };
  const Histogram open_ended = with_last_hi(kMax);
  const Histogram closed = with_last_hi(kMax - 1);
  for (const bool swap : {false, true}) {
    const JoinEstimate got = swap ? JoinHistograms(probe, open_ended)
                                  : JoinHistograms(open_ended, probe);
    const JoinEstimate want = swap ? JoinHistograms(probe, closed)
                                   : JoinHistograms(closed, probe);
    const double got_sel = swap ? JoinSelectivity(probe, open_ended)
                                : JoinSelectivity(open_ended, probe);
    EXPECT_GT(got.selectivity, 0.0);
    EXPECT_TRUE(SameBits(got.selectivity, want.selectivity));
    EXPECT_TRUE(SameBits(got_sel, want.selectivity));
    EXPECT_TRUE(SameBits(got.result.source_cardinality(),
                         want.result.source_cardinality()));
    ASSERT_EQ(got.result.num_buckets(), 2u);
    ASSERT_EQ(want.result.num_buckets(), 2u);
    EXPECT_EQ(std::memcmp(got.result.buckets().data(),
                          want.result.buckets().data(), 2 * sizeof(Bucket)),
              0);
  }
}

TEST(HistogramJoinTest, MatchesSortedCutReference) {
  // Hand cases: adjacent buckets sharing a cut, single-bucket sides,
  // width-1 buckets, and one side inside a single bucket of the other.
  const Histogram adjacent({Bucket{0, 4, 0.25, 5.0}, Bucket{5, 9, 0.35, 3.0},
                            Bucket{10, 14, 0.4, 5.0}},
                           20.0);
  const Histogram straddle({Bucket{3, 7, 0.6, 4.0}, Bucket{8, 9, 0.1, 2.0}},
                           30.0);
  const Histogram same_cut({Bucket{5, 9, 0.5, 5.0}, Bucket{10, 20, 0.5, 7.0}},
                           12.0);
  const Histogram single({Bucket{0, 9, 0.9, 7.0}}, 11.0);
  const Histogram unit({Bucket{3, 3, 0.2, 1.0}, Bucket{4, 4, 0.3, 1.0},
                        Bucket{7, 7, 0.1, 1.0}, Bucket{12, 12, 0.4, 1.0}},
                       10.0);
  const Histogram unit_one({Bucket{4, 4, 1.0, 1.0}}, 3.0);
  const Histogram outer({Bucket{-1000, 1000, 0.95, 400.0}}, 5000.0);
  const Histogram inner({Bucket{100, 110, 0.3, 9.0},
                         Bucket{120, 130, 0.3, 11.0},
                         Bucket{200, 200, 0.4, 1.0}},
                        77.0);
  const std::vector<const Histogram*> hand = {
      &adjacent, &straddle, &same_cut, &single,
      &unit,     &unit_one, &outer,    &inner};
  for (const Histogram* a : hand) {
    for (const Histogram* b : hand) EXPECT_TRUE(MatchesOracle(*a, *b));
  }

  // Seeded random pairs from every builder, in both argument orders, over
  // overlapping, disjoint, nested and shifted domains.
  Rng rng(2024);
  const auto draw = [&rng](int64_t lo, int64_t span) {
    std::vector<int64_t> values(1 + rng.NextBelow(300));
    // Squaring a uniform draw skews half the columns toward lo.
    const bool skewed = rng.NextBool(0.5);
    const uint64_t n = static_cast<uint64_t>(span);
    for (int64_t& v : values) {
      const uint64_t u = rng.NextBelow(n);
      v = lo + static_cast<int64_t>(skewed ? u * u / n : u);
    }
    return values;
  };
  const auto build = [&rng](std::vector<int64_t> values) {
    const auto type = static_cast<HistogramType>(rng.NextBelow(4));
    const double card = static_cast<double>(
        values.size() + rng.NextBelow(values.size() + 1));
    const int max_buckets = 1 + static_cast<int>(rng.NextBelow(64));
    return BuildHistogram(type, std::move(values), card, max_buckets);
  };
  constexpr int kPairs = 2000;
  for (int pair = 0; pair < kPairs; ++pair) {
    const int64_t lo1 = rng.NextInRange(-500, 500);
    const int64_t span1 = rng.NextInRange(1, 600);
    int64_t lo2 = 0;
    int64_t span2 = 0;
    switch (pair % 4) {
      case 0:  // overlapping
        lo2 = lo1 + rng.NextInRange(-span1 / 2, span1 / 2);
        span2 = rng.NextInRange(1, 600);
        break;
      case 1:  // disjoint, sometimes adjacent
        lo2 = lo1 + span1 + rng.NextInRange(0, 50);
        span2 = rng.NextInRange(1, 600);
        break;
      case 2:  // nested
        span2 = rng.NextInRange(1, span1);
        lo2 = lo1 + rng.NextInRange(0, span1 - span2);
        break;
      default:  // shifted copy of the same domain
        lo2 = lo1 + rng.NextInRange(-20, 20);
        span2 = span1;
        break;
    }
    const Histogram h1 = build(draw(lo1, span1));
    const Histogram h2 = build(draw(lo2, span2));
    ASSERT_TRUE(MatchesOracle(h1, h2)) << "pair " << pair;
    ASSERT_TRUE(MatchesOracle(h2, h1)) << "pair " << pair << " swapped";
  }
}

}  // namespace
}  // namespace condsel
