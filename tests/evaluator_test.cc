// Tests for the exact executor: cardinalities, conditional selectivities,
// projections. Validated against the brute-force nested-loop reference on
// the tiny catalog and on randomized queries.

#include <gtest/gtest.h>

#include "condsel/common/rng.h"
#include "condsel/exec/evaluator.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : catalog_(test::MakeTinyCatalog()), eval_(&catalog_, &cache_) {}

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
};

TEST_F(EvaluatorTest, EmptySubsetIsUnitCardinality) {
  const Query q({Predicate::Filter(Ra(), 1, 5)});
  EXPECT_DOUBLE_EQ(eval_.Cardinality(q, 0), 1.0);
}

TEST_F(EvaluatorTest, SingleFilter) {
  const Query q({Predicate::Filter(Ra(), 1, 5)});
  // R.a in [1,5]: rows 1..5.
  EXPECT_DOUBLE_EQ(eval_.Cardinality(q, 1), 5.0);
  EXPECT_DOUBLE_EQ(eval_.TrueSelectivity(q, 1), 0.5);
}

TEST_F(EvaluatorTest, JoinSkipsNulls) {
  const Query q({Predicate::Join(Rx(), Sy())});
  // R.x joins S.y: 10->2 rows in S (2*2 matches), 20->1 (3), 30->1 (1),
  // 40->1 (2), 50->0, 60->0. The NULL S.y row matches nothing.
  // Matches: x=10: 2 R-rows * 2 S-rows = 4; x=20: 3*1=3; 30: 1*1=1;
  // 40: 2*1=2. Total 10.
  EXPECT_DOUBLE_EQ(eval_.Cardinality(q, 1), 10.0);
}

TEST_F(EvaluatorTest, FilterPlusJoinMatchesBruteForce) {
  const Query q({Predicate::Filter(Ra(), 3, 8), Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Sb(), 100, 200)});
  for (PredSet subset = 1; subset <= q.all_predicates(); ++subset) {
    EXPECT_DOUBLE_EQ(eval_.Cardinality(q, subset),
                     test::BruteForceCardinality(catalog_, q, subset))
        << "subset " << subset;
  }
}

TEST_F(EvaluatorTest, ThreeWayJoinMatchesBruteForce) {
  const Query q({Predicate::Join(Rx(), Sy()), Predicate::Join(Sb(), Tz()),
                 Predicate::Filter(Tc(), 1, 3), Predicate::Filter(Ra(), 2, 9)});
  for (PredSet subset = 1; subset <= q.all_predicates(); ++subset) {
    EXPECT_DOUBLE_EQ(eval_.Cardinality(q, subset),
                     test::BruteForceCardinality(catalog_, q, subset))
        << "subset " << subset;
  }
}

TEST_F(EvaluatorTest, SeparableSubsetsMultiply) {
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Filter(Tc(), 1, 2)});
  // 5 rows of R, 2 rows of T: the disconnected subset is a cross product.
  EXPECT_DOUBLE_EQ(eval_.Cardinality(q, 0b11), 10.0);
}

TEST_F(EvaluatorTest, TrueConditionalSelectivityDefinition) {
  const Query q({Predicate::Filter(Ra(), 3, 8), Predicate::Join(Rx(), Sy())});
  // Sel(P|Q) = card(P ∪ Q) / (card(Q) * extra-table cross product).
  const double pq = eval_.Cardinality(q, 0b11);
  const double jq = eval_.Cardinality(q, 0b10);
  EXPECT_DOUBLE_EQ(eval_.TrueConditionalSelectivity(q, 0b01, 0b10), pq / jq);
  // Conditioning on the empty set with extra tables: Sel(join | {}) is
  // card(join) / |R x S|.
  EXPECT_DOUBLE_EQ(eval_.TrueConditionalSelectivity(q, 0b10, 0),
                   eval_.Cardinality(q, 0b10) / 80.0);
}

TEST_F(EvaluatorTest, AtomicDecompositionPropertyHoldsExactly) {
  // Property 1: Sel(P, Q) = Sel(P|Q) * Sel(Q) — with exact values this is
  // an identity; verify it numerically for several splits.
  const Query q({Predicate::Filter(Ra(), 3, 8), Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Sb(), 100, 200)});
  const PredSet all = q.all_predicates();
  for (PredSet p = all; p != 0; p = PrevSubmask(all, p)) {
    const PredSet cond = all & ~p;
    const double lhs = eval_.TrueSelectivity(q, all);
    const double rhs = eval_.TrueConditionalSelectivity(q, p, cond) *
                       eval_.TrueSelectivity(q, cond);
    EXPECT_NEAR(lhs, rhs, 1e-12) << "split " << p;
  }
}

TEST_F(EvaluatorTest, CardinalityCacheHits) {
  const Query q({Predicate::Filter(Ra(), 3, 8), Predicate::Join(Rx(), Sy())});
  cache_.ResetCounters();
  eval_.Cardinality(q, 0b11);
  const uint64_t misses_first = cache_.misses();
  EXPECT_GT(misses_first, 0u);
  eval_.Cardinality(q, 0b11);
  EXPECT_GT(cache_.hits(), 0u);
  EXPECT_EQ(cache_.misses(), misses_first);
}

TEST_F(EvaluatorTest, CacheSharedAcrossEquivalentQueries) {
  // The same canonical predicates in a different order hit the cache.
  const Query q1({Predicate::Filter(Ra(), 3, 8), Predicate::Join(Rx(), Sy())});
  const Query q2({Predicate::Join(Rx(), Sy()), Predicate::Filter(Ra(), 3, 8)});
  eval_.Cardinality(q1, 0b11);
  cache_.ResetCounters();
  eval_.Cardinality(q2, 0b11);
  EXPECT_GT(cache_.hits(), 0u);
  EXPECT_EQ(cache_.misses(), 0u);
}

TEST_F(EvaluatorTest, CyclicJoinComponent) {
  // R-S via x=y, R-S again via a=b is a (degenerate) cycle: the second
  // join must be applied as a tuple filter.
  Catalog c;
  c.AddTable(test::MakeTable("U", {"u1", "u2"}, {{1, 5}, {2, 6}, {3, 7}}));
  c.AddTable(test::MakeTable("V", {"v1", "v2"}, {{1, 5}, {2, 9}, {3, 7}}));
  CardinalityCache cache;
  Evaluator ev(&c, &cache);
  const Query q({Predicate::Join({0, 0}, {1, 0}), Predicate::Join({0, 1}, {1, 1})});
  // Rows matching on both columns: (1,5) and (3,7) -> 2 tuples.
  EXPECT_DOUBLE_EQ(ev.Cardinality(q, 0b11), 2.0);
  EXPECT_DOUBLE_EQ(ev.Cardinality(q, 0b01), 3.0);
}

TEST(EvaluatorRandomTest, RandomQueriesMatchBruteForce) {
  // Property test: random filters/joins over the tiny catalog agree with
  // the nested-loop reference on every subset.
  Catalog catalog = test::MakeTinyCatalog();
  CardinalityCache cache;
  Evaluator eval(&catalog, &cache);
  Rng rng(2024);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Predicate> preds;
    preds.push_back(Predicate::Join(Rx(), Sy()));
    if (rng.NextBool(0.5)) preds.push_back(Predicate::Join(Sb(), Tz()));
    const int64_t lo = rng.NextInRange(0, 8);
    preds.push_back(Predicate::Filter(Ra(), lo, lo + rng.NextInRange(0, 4)));
    const int64_t slo = rng.NextInRange(0, 400);
    preds.push_back(Predicate::Filter(Sb(), slo, slo + 150));
    const Query q(std::move(preds));
    for (PredSet subset = 1; subset <= q.all_predicates(); ++subset) {
      ASSERT_DOUBLE_EQ(eval.Cardinality(q, subset),
                       test::BruteForceCardinality(catalog, q, subset))
          << "iter " << iter << " subset " << subset;
    }
  }
}

}  // namespace
}  // namespace condsel
