// Tests for predicates, queries, predicate sets, and the join graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "condsel/query/join_graph.h"
#include "condsel/query/predicate.h"
#include "condsel/query/predicate_set.h"
#include "condsel/query/query.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }

TEST(PredicateSetTest, BasicOps) {
  PredSet s = 0;
  s = With(s, 0);
  s = With(s, 3);
  EXPECT_TRUE(Contains(s, 0));
  EXPECT_FALSE(Contains(s, 1));
  EXPECT_TRUE(Contains(s, 3));
  EXPECT_EQ(SetSize(s), 2);
  EXPECT_EQ(Without(s, 0), 8u);
  EXPECT_TRUE(IsSubset(1u, s));
  EXPECT_FALSE(IsSubset(2u, s));
  EXPECT_EQ(SetElements(s), (std::vector<int>{0, 3}));
}

TEST(PredicateSetTest, NextSubmaskAscends) {
  const PredSet s = 0b10110;
  std::vector<PredSet> seen;
  for (PredSet sub = NextSubmask(s, 0); sub != 0;
       sub = NextSubmask(s, sub)) {
    seen.push_back(sub);
  }
  EXPECT_EQ(seen, (std::vector<PredSet>{0b00010, 0b00100, 0b00110, 0b10000,
                                        0b10010, 0b10100, 0b10110}));
  EXPECT_EQ(NextSubmask(0, 0), 0u);
}

TEST(PredicateSetTest, SubmaskEnumerationVisitsAll) {
  const PredSet s = 0b1011;
  std::vector<PredSet> seen;
  for (PredSet sub = s; sub != 0; sub = PrevSubmask(s, sub)) {
    seen.push_back(sub);
  }
  EXPECT_EQ(seen.size(), 7u);  // 2^3 - 1 non-empty submasks
  for (PredSet sub : seen) EXPECT_TRUE(IsSubset(sub, s));
}

TEST(PredicateTest, FilterAccessors) {
  const Predicate p = Predicate::Filter(Ra(), 5, 10);
  EXPECT_TRUE(p.is_filter());
  EXPECT_EQ(p.lo(), 5);
  EXPECT_EQ(p.hi(), 10);
  EXPECT_EQ(p.column(), Ra());
  EXPECT_EQ(p.tables(), 1u);
  EXPECT_EQ(p.attrs().size(), 1u);
}

TEST(PredicateTest, EqualsIsDegenerateRange) {
  const Predicate p = Predicate::Equals(Sb(), 7);
  EXPECT_EQ(p.lo(), 7);
  EXPECT_EQ(p.hi(), 7);
}

TEST(PredicateTest, JoinCanonicalization) {
  const Predicate p = Predicate::Join(Sy(), Ra());
  // Sides are swapped so the smaller ColumnRef is on the left.
  EXPECT_EQ(p.left(), Ra());
  EXPECT_EQ(p.right(), Sy());
  EXPECT_EQ(p, Predicate::Join(Ra(), Sy()));
  EXPECT_EQ(p.tables(), 0b11u);
}

TEST(PredicateTest, Ordering) {
  const Predicate a = Predicate::Filter(Ra(), 1, 2);
  const Predicate b = Predicate::Filter(Ra(), 1, 3);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a, Predicate::Filter(Ra(), 1, 2));
}

TEST(QueryTest, Classification) {
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Sb(), 0, 100)});
  EXPECT_EQ(q.num_predicates(), 3);
  EXPECT_EQ(q.all_predicates(), 0b111u);
  EXPECT_EQ(q.filter_predicates(), 0b101u);
  EXPECT_EQ(q.join_predicates(), 0b010u);
  EXPECT_EQ(q.tables(), 0b11u);
  EXPECT_EQ(q.TablesOfSubset(0b001), 0b01u);
  EXPECT_EQ(q.TablesOfSubset(0b010), 0b11u);
}

TEST(QueryTest, CanonicalSubsetIsSorted) {
  const Query q({Predicate::Filter(Sb(), 0, 9), Predicate::Filter(Ra(), 1, 2)});
  const auto subset = q.CanonicalSubset(0b11);
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_TRUE(subset[0] < subset[1]);
}

TEST(JoinGraphTest, ConnectedComponentsSplitsByTables) {
  // R.a filter | S.b filter | join R-S: one component together.
  const Query q({Predicate::Filter(Ra(), 1, 5),
                 Predicate::Filter(Sb(), 0, 100),
                 Predicate::Join(Rx(), Sy())});
  const auto all = ConnectedComponents(q, 0b111);
  EXPECT_EQ(all.size(), 1u);
  // Without the join, the filters separate.
  const auto split = ConnectedComponents(q, 0b011);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], 0b001u);
  EXPECT_EQ(split[1], 0b010u);
}

TEST(JoinGraphTest, SeparabilityDefinition) {
  const Query q({Predicate::Filter(Ra(), 1, 5),
                 Predicate::Filter(Sb(), 0, 100),
                 Predicate::Join(Rx(), Sy()), Predicate::Filter(Tz(), 0, 9)});
  EXPECT_TRUE(IsSeparable(q, 0b1111));   // T is isolated
  EXPECT_FALSE(IsSeparable(q, 0b0111));  // R-S connected
  EXPECT_TRUE(IsSeparable(q, 0b0011));
  EXPECT_FALSE(IsSeparable(q, 0b0001));
}

TEST(JoinGraphTest, ComponentsAreCanonicalAndDisjoint) {
  const Query q({Predicate::Filter(Ra(), 1, 5),
                 Predicate::Filter(Sb(), 0, 100),
                 Predicate::Filter(Tz(), 0, 9)});
  const auto comps = ConnectedComponents(q, 0b111);
  ASSERT_EQ(comps.size(), 3u);
  PredSet unioned = 0;
  for (PredSet c : comps) {
    EXPECT_EQ(unioned & c, 0u);
    unioned |= c;
  }
  EXPECT_EQ(unioned, 0b111u);
  // Canonical ordering by lowest predicate index.
  EXPECT_EQ(comps[0], 0b001u);
  EXPECT_EQ(comps[1], 0b010u);
  EXPECT_EQ(comps[2], 0b100u);
}

// The union-find kernel ConnectedComponents replaced, kept as the
// reference: union the tables each join links, then give each predicate
// the component of its table's root, components in order of first
// predicate.
std::vector<PredSet> UnionFindComponents(const Query& q, PredSet subset) {
  UnionFind uf(kMaxPredicates);
  for (int i : SetBits(subset)) {
    const Predicate& p = q.predicate(i);
    if (p.is_join()) uf.Union(p.left().table, p.right().table);
  }
  std::vector<int> roots;
  std::vector<PredSet> comps;
  for (int i : SetBits(subset)) {
    const Predicate& p = q.predicate(i);
    const int root =
        uf.Find(p.is_join() ? p.left().table : p.column().table);
    const auto it = std::find(roots.begin(), roots.end(), root);
    if (it == roots.end()) {
      roots.push_back(root);
      comps.push_back(1u << i);
    } else {
      comps[static_cast<size_t>(it - roots.begin())] |= 1u << i;
    }
  }
  return comps;
}

TEST(JoinGraphTest, ComponentsMatchUnionFindOnEverySubset) {
  // 7 joins and 5 filters over 6 tables, interleaved at random. Seven
  // joins over six tables always close a cycle or repeat a join, and the
  // subsets that drop joins leave disconnected pieces and filters on
  // tables no join reaches.
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    auto column = [&] {
      return ColumnRef{static_cast<TableId>(rng() % 6),
                       static_cast<ColumnId>(rng() % 3)};
    };
    std::vector<Predicate> preds;
    while (preds.size() < 7) {
      const ColumnRef a = column(), b = column();
      if (a.table != b.table) preds.push_back(Predicate::Join(a, b));
    }
    for (int f = 0; f < 5; ++f) {
      preds.push_back(Predicate::Filter(column(), 0, 10));
    }
    std::shuffle(preds.begin(), preds.end(), rng);
    const Query q(preds);
    for (PredSet subset = 0; subset <= q.all_predicates(); ++subset) {
      const ComponentList got = ConnectedComponents(q, subset);
      ASSERT_EQ(std::vector<PredSet>(got.begin(), got.end()),
                UnionFindComponents(q, subset))
          << "seed " << seed << ", subset " << subset;
    }
  }
}

TEST(JoinGraphTest, JoinsConnectTables) {
  const Query q({Predicate::Join(Rx(), Sy()), Predicate::Filter(Tz(), 0, 9),
                 Predicate::Join(Sb(), Tz())});
  EXPECT_TRUE(JoinsConnectTables(q.predicates(), 0b101));
  // Filter on T alone does not connect T to R-S.
  EXPECT_FALSE(JoinsConnectTables(q.predicates(), 0b011));
}

TEST(JoinGraphTest, ConnectedSubsets) {
  // Chain: R -j0- S -j1- T. Connected join subsets: {j0}, {j1}, {j0,j1}.
  const Query q({Predicate::Join(Rx(), Sy()), Predicate::Join(Sb(), Tz())});
  const auto subsets =
      ConnectedSubsets(q, q.all_predicates(), 2);
  EXPECT_EQ(subsets.size(), 3u);
  const auto size1 = ConnectedSubsets(q, q.all_predicates(), 1);
  EXPECT_EQ(size1.size(), 2u);
}

TEST(JoinGraphTest, UnionFindBasics) {
  UnionFind uf(8);
  EXPECT_FALSE(uf.Connected(1, 2));
  uf.Union(1, 2);
  uf.Union(2, 5);
  EXPECT_TRUE(uf.Connected(1, 5));
  EXPECT_FALSE(uf.Connected(0, 1));
}

}  // namespace
}  // namespace condsel
