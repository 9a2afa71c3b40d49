// Tests for decomposition counting and Lemma 1's bounds, and for the
// order in which the DP enumerates atomic-decomposition candidates.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "condsel/common/arena.h"
#include "condsel/common/fault_injector.h"
#include "condsel/selectivity/decomposer.h"
#include "condsel/selectivity/decomposition.h"

namespace condsel {
namespace {

TEST(DecompositionCountTest, SmallValuesByHand) {
  // T(1)=1. T(2): {p1p2}, {p1}{p2}, {p2}{p1} = 3.
  // T(3) = C(3,1)T(2) + C(3,2)T(1) + C(3,3)T(0) = 9 + 3 + 1 = 13.
  EXPECT_EQ(CountDecompositions(1), 1u);
  EXPECT_EQ(CountDecompositions(2), 3u);
  EXPECT_EQ(CountDecompositions(3), 13u);
  EXPECT_EQ(CountDecompositions(4), 75u);
  EXPECT_EQ(CountDecompositions(5), 541u);
}

TEST(DecompositionCountTest, MatchesEnumerationUpTo6) {
  for (int n = 1; n <= 6; ++n) {
    const PredSet full = (1u << n) - 1;
    EXPECT_EQ(CountChainDecompositions(full), CountDecompositions(n))
        << "n=" << n;
  }
}

TEST(DecompositionCountTest, EnumerationProducesValidDistinctChains) {
  const PredSet full = 0b1111;
  std::set<std::vector<std::pair<PredSet, PredSet>>> seen;
  EnumerateChainDecompositions(full, [&](const Decomposition& d) {
    EXPECT_TRUE(IsChainDecomposition(full, d));
    std::vector<std::pair<PredSet, PredSet>> key;
    for (const Factor& f : d) key.emplace_back(f.p, f.q);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate decomposition";
  });
  EXPECT_EQ(seen.size(), CountDecompositions(4));
}

TEST(Lemma1Test, BoundsHoldForAllTractableN) {
  for (int n = 1; n <= 12; ++n) {
    EXPECT_TRUE(Lemma1LowerBoundHolds(n)) << "lower bound fails at " << n;
    EXPECT_TRUE(Lemma1UpperBoundHolds(n)) << "upper bound fails at " << n;
  }
}

TEST(CombinatoricsTest, FactorialAndBinomial) {
  EXPECT_EQ(Factorial(0), 1u);
  EXPECT_EQ(Factorial(5), 120u);
  EXPECT_EQ(Factorial(10), 3628800u);
  EXPECT_EQ(Binomial(5, 0), 1u);
  EXPECT_EQ(Binomial(5, 2), 10u);
  EXPECT_EQ(Binomial(10, 5), 252u);
  EXPECT_EQ(Binomial(7, 7), 1u);
}

TEST(DecompositionCountTest, GrowthIsFactorialLike) {
  // The ratio T(n+1)/T(n) must exceed n+2 (from the Lemma 1 proof).
  for (int n = 1; n <= 11; ++n) {
    const double ratio =
        static_cast<double>(CountDecompositions(n + 1)) /
        static_cast<double>(CountDecompositions(n));
    EXPECT_GE(ratio, static_cast<double>(n + 2) - 1e-9) << "n=" << n;
  }
}

// The four candidate groups of decomposer.h, in their documented order,
// written out predicate by predicate: single filters; filter pairs;
// single joins; each join with every non-empty combination of P's
// filters over its columns, the combinations counted up in binary over
// those filters in index order.
std::vector<PredSet> FourGroupOrder(const Query& q, PredSet p) {
  const int n = q.num_predicates();
  auto in = [&](int i, bool join) {
    return Contains(p, i) && q.predicate(i).is_join() == join;
  };
  std::vector<PredSet> out;
  for (int i = 0; i < n; ++i) {
    if (in(i, false)) out.push_back(1u << i);
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (in(a, false) && in(b, false)) out.push_back((1u << a) | (1u << b));
    }
  }
  for (int i = 0; i < n; ++i) {
    if (in(i, true)) out.push_back(1u << i);
  }
  for (int j = 0; j < n; ++j) {
    if (!in(j, true)) continue;
    const Predicate& join = q.predicate(j);
    std::vector<int> attached;
    for (int f = 0; f < n; ++f) {
      if (in(f, false) && (q.predicate(f).column() == join.left() ||
                           q.predicate(f).column() == join.right())) {
        attached.push_back(f);
      }
    }
    for (uint32_t m = 1; m < (1u << attached.size()); ++m) {
      PredSet combo = 1u << j;
      for (size_t b = 0; b < attached.size(); ++b) {
        if (Contains(m, static_cast<int>(b))) combo |= 1u << attached[b];
      }
      out.push_back(combo);
    }
  }
  return out;
}

std::vector<PredSet> Enumerate(const Query& q, PredSet p,
                               const Deadline* deadline, bool* truncated) {
  Arena arena;
  ArenaVector<PredSet> out(&arena);
  AtomicFactorCandidatesInto(q, p, deadline, truncated, &out);
  return std::vector<PredSet>(out.begin(), out.end());
}

// R.x = S.y carries three attached filters (two on R.x, one on S.y), so
// its fan-out is 7; S.b = T.z carries two; R.a's filter attaches to no
// join but pairs with every other filter.
Query FanOutQuery() {
  const ColumnRef ra{0, 0}, rx{0, 1}, sy{1, 0}, sb{1, 1}, tz{2, 0};
  return Query({Predicate::Filter(ra, 1, 5),     // 0
                Predicate::Join(rx, sy),         // 1
                Predicate::Filter(rx, 0, 10),    // 2  on join 1
                Predicate::Filter(sy, 2, 8),     // 3  on join 1
                Predicate::Join(sb, tz),         // 4
                Predicate::Equals(rx, 3),        // 5  on join 1
                Predicate::Filter(tz, 0, 4),     // 6  on join 4
                Predicate::Filter(sb, 1, 1)});   // 7  on join 4
}

TEST(AtomicFactorCandidatesTest, FollowsTheFourGroupOrder) {
  const Query q = FanOutQuery();
  // One join with its three attached filters, spelled out.
  EXPECT_EQ(Enumerate(q, 0b101110, nullptr, nullptr),
            (std::vector<PredSet>{
                0b000100, 0b001000, 0b100000,   // single filters
                0b001100, 0b100100, 0b101000,   // filter pairs
                0b000010,                       // the join
                0b000110, 0b001010, 0b001110,   // join + 1..3 filters,
                0b100010, 0b100110, 0b101010,   //   fan-out 7
                0b101110}));
  // Every subset of the query against the reference.
  for (PredSet p = 0; p <= q.all_predicates(); ++p) {
    bool truncated = true;
    ASSERT_EQ(Enumerate(q, p, nullptr, &truncated), FourGroupOrder(q, p))
        << "p=" << p;
    EXPECT_FALSE(truncated);
  }
}

TEST(AtomicFactorCandidatesTest, ExpiredDeadlineTruncates) {
  const Query q = FanOutQuery();
  const PredSet all = q.all_predicates();
  Deadline deadline;
  deadline.Arm(3600.0);
  bool truncated = true;
  EXPECT_EQ(Enumerate(q, all, &deadline, &truncated), FourGroupOrder(q, all));
  EXPECT_FALSE(truncated);

  const ScopedFault expire(Fault::kExpireDeadline);
  // The first gate sits before the filter pairs: only single filters.
  EXPECT_EQ(Enumerate(q, all, &deadline, &truncated),
            (std::vector<PredSet>{0b00000001, 0b00000100, 0b00001000,
                                  0b00100000, 0b01000000, 0b10000000}));
  EXPECT_TRUE(truncated);
  // A filter-free subset reaches the join loop's gate instead.
  EXPECT_EQ(Enumerate(q, 0b10010, &deadline, &truncated),
            (std::vector<PredSet>{0b00010, 0b10000}));
  EXPECT_TRUE(truncated);
  // A disarmed deadline never truncates, fault or not.
  deadline.Disarm();
  EXPECT_EQ(Enumerate(q, all, &deadline, &truncated), FourGroupOrder(q, all));
  EXPECT_FALSE(truncated);
}

}  // namespace
}  // namespace condsel
