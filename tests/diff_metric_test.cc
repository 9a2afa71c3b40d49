// Tests for the diff divergence of Section 3.5.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "condsel/common/rng.h"
#include "condsel/common/zipf.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/diff_metric.h"

namespace condsel {
namespace {

TEST(ExactDiffTest, IdenticalDistributionsAreZero) {
  const std::vector<int64_t> v = {1, 2, 2, 3, 3, 3};
  EXPECT_DOUBLE_EQ(ExactDiff(v, v), 0.0);
  // Scaling multiplicities uniformly keeps the distribution identical.
  std::vector<int64_t> doubled;
  for (int64_t x : v) {
    doubled.push_back(x);
    doubled.push_back(x);
  }
  EXPECT_NEAR(ExactDiff(v, doubled), 0.0, 1e-12);
}

TEST(ExactDiffTest, DisjointSupportsAreOne) {
  EXPECT_DOUBLE_EQ(ExactDiff({1, 2, 3}, {10, 11}), 1.0);
}

TEST(ExactDiffTest, EmptyInputsGiveZero) {
  EXPECT_DOUBLE_EQ(ExactDiff({}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(ExactDiff({1, 2}, {}), 0.0);
}

TEST(ExactDiffTest, HalfOverlapValue) {
  // P = {1: .5, 2: .5}, Q = {1: .5, 3: .5}: L1 = 0 + .5 + .5 = 1, diff = .5.
  EXPECT_DOUBLE_EQ(ExactDiff({1, 2}, {1, 3}), 0.5);
}

TEST(ExactDiffTest, SymmetricAndBounded) {
  Rng rng(5);
  ZipfSampler z(50, 1.0);
  std::vector<int64_t> a(1000), b(1000);
  for (auto& v : a) v = z.Next(rng);
  for (auto& v : b) v = rng.NextInRange(0, 49);
  const double d1 = ExactDiff(a, b);
  const double d2 = ExactDiff(b, a);
  EXPECT_NEAR(d1, d2, 1e-12);
  EXPECT_GE(d1, 0.0);
  EXPECT_LE(d1, 1.0);
  EXPECT_GT(d1, 0.1);  // Zipf vs uniform should differ noticeably
}

TEST(ExactDiffTest, TriangleInequality) {
  // Total-variation distance is a metric; spot-check the triangle
  // inequality on three related distributions.
  Rng rng(6);
  std::vector<int64_t> a(500), b(500), c(500);
  for (auto& v : a) v = rng.NextInRange(0, 9);
  for (auto& v : b) v = rng.NextInRange(0, 14);
  for (auto& v : c) v = rng.NextInRange(5, 19);
  EXPECT_LE(ExactDiff(a, c), ExactDiff(a, b) + ExactDiff(b, c) + 1e-12);
}

TEST(ExactDiffTest, RunListFormEqualsValueForm) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> cases = {
      {{}, {}},
      {{}, {1, 2}},
      {{1, 2}, {}},
      {{7, 7, 7}, {7}},                 // one distinct value
      {{kMin, 0, kMax}, {kMax, kMax}},  // the int64 extremes
      {{1, 2, 2, 3}, {2, 5, 5}},
  };
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    ZipfSampler z(rng.NextInRange(1, 300), 1.0);
    std::vector<int64_t> a(static_cast<size_t>(rng.NextInRange(1, 2000)));
    std::vector<int64_t> b(static_cast<size_t>(rng.NextInRange(1, 2000)));
    const int64_t domain = rng.NextInRange(1, 400);
    for (auto& v : a) v = rng.NextInRange(0, domain - 1);
    for (auto& v : b) v = z.Next(rng);
    cases.emplace_back(std::move(a), std::move(b));
  }
  auto runs = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return DistinctCounts(v);
  };
  for (const auto& [a, b] : cases) {
    const double got = ExactDiff(runs(a), runs(b));
    const double want = ExactDiff(a, b);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << got << " vs " << want;
  }
}

TEST(HistogramDiffTest, MatchesExactOnFineBuckets) {
  Rng rng(7);
  ZipfSampler z(100, 1.2);
  std::vector<int64_t> a(5000), b(5000);
  for (auto& v : a) v = rng.NextInRange(0, 99);
  for (auto& v : b) v = z.Next(rng);
  const double exact = ExactDiff(a, b);
  const double approx = HistogramDiff(BuildMaxDiff(a, 5000.0, 200),
                                      BuildMaxDiff(b, 5000.0, 200));
  EXPECT_NEAR(approx, exact, 0.08);
}

TEST(HistogramDiffTest, ZeroForSameHistogram) {
  Rng rng(8);
  std::vector<int64_t> a(2000);
  for (auto& v : a) v = rng.NextInRange(0, 99);
  const Histogram h = BuildMaxDiff(a, 2000.0, 50);
  EXPECT_NEAR(HistogramDiff(h, h), 0.0, 1e-12);
}

TEST(HistogramDiffTest, EmptyHistogramGivesZero) {
  const Histogram h = BuildMaxDiff({1, 2, 3}, 3.0, 4);
  const Histogram empty = BuildMaxDiff({}, 0.0, 4);
  EXPECT_DOUBLE_EQ(HistogramDiff(h, empty), 0.0);
}

TEST(HistogramDiffTest, CappedAtOne) {
  const Histogram h1 = BuildMaxDiff({1, 2, 3}, 3.0, 4);
  const Histogram h2 = BuildMaxDiff({100, 200}, 2.0, 4);
  const double d = HistogramDiff(h1, h2);
  EXPECT_GE(d, 0.99);
  EXPECT_LE(d, 1.0);
}

}  // namespace
}  // namespace condsel
