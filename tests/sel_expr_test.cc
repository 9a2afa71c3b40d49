// Tests for selectivity expressions, chain decompositions, separability.

#include <gtest/gtest.h>

#include "condsel/selectivity/sel_expr.h"
#include "condsel/selectivity/separability.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

Query ThreeTableQuery() {
  return Query({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)});    // 3
}

TEST(SelExprTest, ValidChainDecompositions) {
  const PredSet full = 0b1111;
  EXPECT_TRUE(IsChainDecomposition(full, {{0b1111, 0}}));
  EXPECT_TRUE(IsChainDecomposition(full, {{0b0001, 0b1110}, {0b1110, 0}}));
  EXPECT_TRUE(IsChainDecomposition(
      full, {{0b0001, 0b1110}, {0b0010, 0b1100}, {0b1100, 0}}));
}

TEST(SelExprTest, InvalidChainDecompositions) {
  const PredSet full = 0b1111;
  // Empty factor head.
  EXPECT_FALSE(IsChainDecomposition(full, {{0, 0b1111}, {0b1111, 0}}));
  // Wrong conditioning set.
  EXPECT_FALSE(IsChainDecomposition(full, {{0b0001, 0b0110}, {0b1110, 0}}));
  // Doesn't cover everything.
  EXPECT_FALSE(IsChainDecomposition(full, {{0b0001, 0b1110}}));
  // Overlapping heads.
  EXPECT_FALSE(
      IsChainDecomposition(full, {{0b0011, 0b1100}, {0b0010, 0b1100}}));
}

TEST(SelExprTest, FactorToStringShape) {
  const Query q = ThreeTableQuery();
  const std::string s = FactorToString(q, Factor{0b0001, 0b0010});
  EXPECT_NE(s.find("Sel("), std::string::npos);
  EXPECT_NE(s.find("|"), std::string::npos);
  const std::string no_cond = FactorToString(q, Factor{0b0001, 0});
  EXPECT_EQ(no_cond.find("|"), std::string::npos);
}

TEST(SeparabilityTest, SeparableSelMirrorsComponents) {
  const Query q = ThreeTableQuery();
  EXPECT_FALSE(IsSeparableSel(q, 0b1111));
  EXPECT_FALSE(IsSeparableSel(q, 0b0111));
  // Filters on R and T without connecting joins: separable.
  EXPECT_TRUE(IsSeparableSel(q, 0b1001));
  // ... but conditioning can connect them.
  EXPECT_FALSE(IsSeparableSel(q, 0b1001, 0b0110));
}

TEST(SeparabilityTest, ExampleOneFromPaper) {
  // Example 1: Sel_{R,S,T}(T.b=5, S.a<10 | R.x=S.y) separates into the
  // T-factor and the (R,S)-factor.
  const Query q({Predicate::Filter(Tc(), 5, 5),      // 0: "T.b=5"
                 Predicate::Filter(Sb(), 0, 9),      // 1: "S.a<10"
                 Predicate::Join(Rx(), Sy())});      // 2: "R.x=S.y"
  EXPECT_TRUE(IsSeparableSel(q, 0b011, 0b100));
  const auto comps = StandardDecompositionFast(q, 0b111);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], 0b001u);   // the T factor
  EXPECT_EQ(comps[1], 0b110u);   // the R-S factor
}

TEST(SeparabilityTest, StandardDecompositionUniqueAndIdempotent) {
  const Query q = ThreeTableQuery();
  // Lemma 2: repeatedly splitting always lands on the same non-separable
  // parts; each part must itself be non-separable.
  for (PredSet p = 1; p <= q.all_predicates(); ++p) {
    const auto comps = StandardDecompositionFast(q, p);
    PredSet unioned = 0;
    for (PredSet c : comps) {
      EXPECT_FALSE(IsSeparableSel(q, c)) << "p=" << p;
      EXPECT_EQ(unioned & c, 0u);
      unioned |= c;
      // Idempotence: a component's standard decomposition is itself.
      const auto again = StandardDecompositionFast(q, c);
      ASSERT_EQ(again.size(), 1u);
      EXPECT_EQ(again[0], c);
    }
    EXPECT_EQ(unioned, p);
  }
}

}  // namespace
}  // namespace condsel
