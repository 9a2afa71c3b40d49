// Tests for the top-level Estimator facade.

#include <gtest/gtest.h>

#include "condsel/api.h"
#include "condsel/sit/sit_builder.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy())}) {
    pool_ = GenerateSitPool({query_}, 1, builder_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
};

TEST_F(ApiTest, CardinalityMatchesManualWiring) {
  Estimator est(&catalog_, &pool_, Ranking::kDiff);
  const double card = est.TryEstimateCardinality(query_).value();
  // With the join SIT available, the estimate is exact here (7 rows).
  EXPECT_NEAR(card, eval_.Cardinality(query_, query_.all_predicates()),
              1e-6);
  EXPECT_NEAR(est.TryEstimateSelectivity(query_).value(), card / 80.0,
              1e-12);
}

TEST_F(ApiTest, SubsetMasksUseTheCallersIndexing) {
  Estimator est(&catalog_, &pool_, Ranking::kDiff);
  // Predicate 0 is the filter, predicate 1 the join — masks must honour
  // that ordering even across the session cache.
  EXPECT_NEAR(est.TryEstimateSelectivity(query_, 0b01).value(), 0.5, 1e-9);
  EXPECT_NEAR(est.TryEstimateSelectivity(query_, 0b10).value(), 0.125, 1e-9);
  // A query with the reverse predicate order gets its own session.
  const Query reversed({Predicate::Join(Rx(), Sy()),
                        Predicate::Filter(Ra(), 1, 5)});
  EXPECT_NEAR(est.TryEstimateSelectivity(reversed, 0b01).value(), 0.125,
              1e-9);
  EXPECT_EQ(est.cached_queries(), 2u);
}

TEST_F(ApiTest, SessionsAreReused) {
  Estimator est(&catalog_, &pool_);
  est.TryEstimateSelectivity(query_).value();
  est.TryEstimateSelectivity(query_, 0b01).value();
  est.TryEstimateCardinality(query_, 0b10).value();
  EXPECT_EQ(est.cached_queries(), 1u);
  est.ClearCache();
  EXPECT_EQ(est.cached_queries(), 0u);
}

TEST_F(ApiTest, ExplainIsHumanReadable) {
  Estimator est(&catalog_, &pool_);
  const std::string why = est.TryExplain(query_).value();
  EXPECT_NE(why.find("Sel("), std::string::npos);
  EXPECT_NE(why.find("sit#"), std::string::npos);
}

TEST_F(ApiTest, RankingSelectionTakesEffect) {
  // Both rankings must produce valid probabilities; on this query with a
  // three-table chain they can choose different decompositions.
  const Query q({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                 Predicate::Join(Sb(), Tz())});
  const SitPool pool = GenerateSitPool({q}, 2, builder_);
  Estimator diff_est(&catalog_, &pool, Ranking::kDiff);
  Estimator nind_est(&catalog_, &pool, Ranking::kNInd);
  for (Estimator* est : {&diff_est, &nind_est}) {
    const double sel = est->TryEstimateSelectivity(q).value();
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
}

TEST_F(ApiTest, OutlivesTemporaryCallerQueries) {
  // The facade copies the query into its session; the caller's Query may
  // die immediately.
  Estimator est(&catalog_, &pool_);
  double first = 0.0;
  {
    const Query temp({Predicate::Filter(Ra(), 1, 5),
                      Predicate::Join(Rx(), Sy())});
    first = est.TryEstimateSelectivity(temp).value();
  }
  const Query again({Predicate::Filter(Ra(), 1, 5),
                     Predicate::Join(Rx(), Sy())});
  EXPECT_DOUBLE_EQ(est.TryEstimateSelectivity(again).value(), first);
  EXPECT_EQ(est.cached_queries(), 1u);
}

TEST_F(ApiTest, StrictRejectsDegradedEstimates) {
  // One subproblem cannot cover the whole lattice of a two-predicate
  // query, so the session degrades and Strict must refuse it.
  EstimationBudget tight;
  tight.max_subproblems = 1;
  Estimator strict(&catalog_, &pool_, Ranking::kDiff, tight);
  const StatusOr<double> degraded =
      strict.TryEstimateSelectivityStrict(query_, query_.all_predicates());
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kResourceExhausted);
  // The lenient entry point still hands back the degraded value.
  EXPECT_TRUE(strict.TryEstimateSelectivity(query_).ok());

  // With the default budget nothing degrades and Strict matches the
  // lenient estimate bit for bit.
  Estimator relaxed(&catalog_, &pool_, Ranking::kDiff);
  const StatusOr<double> full =
      relaxed.TryEstimateSelectivityStrict(query_, query_.all_predicates());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value(), relaxed.TryEstimateSelectivity(query_).value());
}

}  // namespace
}  // namespace condsel
