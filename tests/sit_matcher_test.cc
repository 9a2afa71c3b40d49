// Tests for candidate-SIT matching (Section 3.3's rules, Example 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "condsel/exec/evaluator.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

class SitMatcherTest : public ::testing::Test {
 protected:
  SitMatcherTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)}) {}  // 3

  // Pool: base(R.a), SIT(R.a | RS), SIT(R.a | RS, ST), base(T.c).
  void FillPool() {
    pool_.Add(builder_.Build(Ra(), {}));
    pool_.Add(builder_.Build(Ra(), {query_.predicate(1)}));
    pool_.Add(
        builder_.Build(Ra(), {query_.predicate(1), query_.predicate(2)}));
    pool_.Add(builder_.Build(Tc(), {}));
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
};

TEST_F(SitMatcherTest, BaseOnlyWhenCondEmpty) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  const auto cands = matcher.Candidates(Ra(), 0);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].sit->is_base());
  EXPECT_EQ(cands[0].expr_mask, 0u);
}

TEST_F(SitMatcherTest, MaximalityPrunesBaseAndSmallerSits) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  // Cond = {j_RS}: SIT(R.a | RS) is consistent and maximal; the base
  // histogram is strictly contained, the 2-join SIT is inconsistent.
  const auto cands = matcher.Candidates(Ra(), 0b010);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].expr_mask, 0b010u);
}

TEST_F(SitMatcherTest, LargestConsistentSitWins) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  // Cond = {j_RS, j_ST, filter T.c}: the 2-join SIT is consistent and
  // subsumes the 1-join SIT.
  const auto cands = matcher.Candidates(Ra(), 0b1110);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].expr_mask, 0b110u);
}

TEST_F(SitMatcherTest, IncomparableCandidatesBothKept) {
  // Example 2's shape: two SITs conditioned on incomparable subsets.
  pool_.Add(builder_.Build(Ra(), {query_.predicate(1)}));
  pool_.Add(builder_.Build(Sb(), {query_.predicate(1)}));  // different attr
  // Add SIT(R.a | ST)? The expression must reach R; instead build a
  // same-attr incomparable pair via two different single joins from R.
  // Tiny catalog has only one join touching R, so emulate with attr S.b:
  pool_.Add(builder_.Build(Sb(), {query_.predicate(2)}));
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  const auto cands = matcher.Candidates(Sb(), 0b110);
  // SIT(S.b|RS) and SIT(S.b|ST): incomparable expressions, both maximal.
  EXPECT_EQ(cands.size(), 2u);
}

TEST_F(SitMatcherTest, InapplicableExpressionIgnored) {
  // A SIT whose expression predicate is not part of the bound query must
  // not surface.
  pool_.Add(builder_.Build(Ra(), {}));
  pool_.Add(builder_.Build(Ra(), {Predicate::Join(Ra(), Sb())}));
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  const auto cands = matcher.Candidates(Ra(), query_.all_predicates());
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].sit->is_base());
}

TEST_F(SitMatcherTest, UnknownAttributeYieldsNothing) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  EXPECT_TRUE(matcher.Candidates(Sy(), query_.all_predicates()).empty());
}

TEST_F(SitMatcherTest, CallCounterCounts) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  EXPECT_EQ(matcher.num_calls(), 0u);
  matcher.Candidates(Ra(), 0);
  matcher.Candidates(Ra(), 0b010);
  EXPECT_EQ(matcher.num_calls(), 2u);
  matcher.ResetCallCounter();
  EXPECT_EQ(matcher.num_calls(), 0u);
}

TEST_F(SitMatcherTest, RebindSwitchesQuery) {
  FillPool();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&query_);
  EXPECT_EQ(matcher.Candidates(Ra(), 0b010).size(), 1u);
  // A different query without the R-S join: the join SITs don't apply.
  const Query other({Predicate::Filter(Ra(), 2, 4)});
  matcher.BindQuery(&other);
  const auto cands = matcher.Candidates(Ra(), 0);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].sit->is_base());
}

// The quadratic rule the one-pass filter replaced, kept as the reference:
// the key's applicable SITs in pool order, keeping each consistent one
// whose expression no other consistent SIT's strictly contains.
// `list_size` receives the applicability list's length.
std::vector<SitCandidate> QuadraticCandidates(const SitPool& pool,
                                              const Query& q, ColumnRef attr,
                                              ColumnRef attr2, PredSet cond,
                                              size_t* list_size) {
  std::vector<SitCandidate> list;
  for (const Sit& sit : pool.sits()) {
    if (sit.attr != attr || sit.attr2 != attr2) continue;
    PredSet mask = 0;
    bool applies = true;
    for (const Predicate& ep : sit.expression) {
      const auto it =
          std::find(q.predicates().begin(), q.predicates().end(), ep);
      if (it == q.predicates().end()) {
        applies = false;
        break;
      }
      mask = With(mask, static_cast<int>(it - q.predicates().begin()));
    }
    if (applies) list.push_back(SitCandidate{&sit, mask});
  }
  *list_size = list.size();
  std::vector<SitCandidate> out;
  for (const SitCandidate& c : list) {
    if (!IsSubset(c.expr_mask, cond)) continue;
    bool dominated = false;
    for (const SitCandidate& d : list) {
      if (IsSubset(d.expr_mask, cond) && d.sit != c.sit &&
          IsSubset(c.expr_mask, d.expr_mask) && c.expr_mask != d.expr_mask) {
        dominated = true;
      }
    }
    if (!dominated) out.push_back(c);
  }
  return out;
}

Sit MakeSit(ColumnRef attr, ColumnRef attr2, std::vector<Predicate> expr) {
  Sit sit;
  sit.attr = attr;
  sit.attr2 = attr2;
  sit.expression = std::move(expr);
  return sit;
}

bool SameCandidates(const std::vector<SitCandidate>& a,
                    const std::vector<SitCandidate>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SitCandidate& x, const SitCandidate& y) {
                      return x.sit == y.sit && x.expr_mask == y.expr_mask;
                    });
}

TEST_F(SitMatcherTest, SurvivorsComeBackInPoolOrder) {
  // The smaller SIT precedes the larger, incomparable one in the pool:
  // both survive, and in that order, not in size order.
  const Query q({Predicate::Join(Rx(), Sy()), Predicate::Join(Sb(), Tz()),
                 Predicate::Filter(Tc(), 1, 3)});
  const SitId small = pool_.Add(MakeSit(Ra(), {}, {q.predicate(0)}));
  const SitId large =
      pool_.Add(MakeSit(Ra(), {}, {q.predicate(1), q.predicate(2)}));
  pool_.Add(MakeSit(Ra(), {}, {}));
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&q);
  const auto cands = matcher.Candidates(Ra(), q.all_predicates());
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].sit, &pool_.sit(small));
  EXPECT_EQ(cands[1].sit, &pool_.sit(large));
}

TEST_F(SitMatcherTest, OnePassFilterMatchesQuadraticRule) {
  // Random pools over two attributes and their pair. Expressions draw
  // query predicates with repetition, so distinct SITs can share a mask,
  // and sometimes a predicate outside the query, so some never apply.
  // Every attribute has its base histogram.
  const std::vector<Predicate> preds = {
      Predicate::Join(Rx(), Sy()),   Predicate::Join(Sb(), Tz()),
      Predicate::Filter(Ra(), 1, 5), Predicate::Filter(Tc(), 1, 3),
      Predicate::Join(Ra(), Tz()),   Predicate::Filter(Sb(), 0, 9),
      Predicate::Filter(Rx(), 2, 7), Predicate::Join(Rx(), Tc())};
  const Query q(preds);
  const Predicate outside = Predicate::Filter(Sy(), 4, 4);
  struct Key {
    ColumnRef attr, attr2;
  };
  const Key keys[] = {{Ra(), {}}, {Sb(), {}}, {Ra(), Sb()}};
  using Accounting = SitMatcher::CallAccounting;
  std::vector<SitCandidate> got;
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    SitPool pool;
    for (const Key& k : keys) pool.Add(MakeSit(k.attr, k.attr2, {}));
    for (int s = 0; s < 40; ++s) {
      const Key& k = keys[rng() % 3];
      std::vector<Predicate> expr;
      const int size = static_cast<int>(rng() % 5);
      for (int e = 0; e < size; ++e) {
        expr.push_back(rng() % 12 == 0 ? outside
                                       : preds[rng() % preds.size()]);
      }
      pool.Add(MakeSit(k.attr, k.attr2, expr));
    }
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    for (PredSet cond = 0; cond <= q.all_predicates(); ++cond) {
      for (const Key& k : keys) {
        for (Accounting acc : {Accounting::kIndexed, Accounting::kPerSit}) {
          size_t list_size = 0;
          const std::vector<SitCandidate> want = QuadraticCandidates(
              pool, q, k.attr, k.attr2, cond, &list_size);
          const uint64_t calls = matcher.num_calls();
          if (k.attr2.table == kInvalidTableId) {
            matcher.CandidatesInto(k.attr, cond, acc, &got);
          } else {
            // Argument order must not matter for pair lists.
            matcher.Candidates2Into(k.attr2, k.attr, cond, acc, &got);
          }
          ASSERT_TRUE(SameCandidates(got, want))
              << "seed " << seed << ", cond " << cond;
          EXPECT_EQ(matcher.num_calls() - calls,
                    acc == Accounting::kIndexed
                        ? 1u
                        : std::max<uint64_t>(1, list_size));
        }
      }
    }
    // A column no SIT covers: nothing, one call either way.
    const uint64_t calls = matcher.num_calls();
    matcher.CandidatesInto(Sy(), q.all_predicates(), Accounting::kPerSit,
                           &got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(matcher.num_calls() - calls, 1u);
  }
}

}  // namespace
}  // namespace condsel
