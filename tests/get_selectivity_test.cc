// Tests for the getSelectivity dynamic program (Figure 3, Theorem 1).

#include <gtest/gtest.h>

#include <cstring>

#include "condsel/analysis/derivation.h"
#include "condsel/exec/evaluator.h"
#include "condsel/selectivity/exhaustive.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
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

class GetSelectivityTest : public ::testing::Test {
 protected:
  GetSelectivityTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)}),    // 3
        matcher_(&pool_) {}

  void BuildPool(int max_joins) {
    pool_ = GenerateSitPool({query_}, max_joins, builder_);
    matcher_.BindQuery(&query_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
  SitMatcher matcher_;
  NIndError n_ind_;
  DiffError diff_;
};

TEST_F(GetSelectivityTest, EmptySetIsUnit) {
  BuildPool(0);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  const SelEstimate e = gs.Compute(0);
  EXPECT_DOUBLE_EQ(e.selectivity, 1.0);
  EXPECT_DOUBLE_EQ(e.error, 0.0);
}

TEST_F(GetSelectivityTest, SinglePredicateUsesBase) {
  BuildPool(0);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  EXPECT_NEAR(gs.Compute(0b0001).selectivity, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(gs.Compute(0b0001).error, 0.0);
}

TEST_F(GetSelectivityTest, SeparableSubsetMultiplies) {
  BuildPool(0);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  const double lhs = gs.Compute(0b1001).selectivity;
  const double rhs =
      gs.Compute(0b0001).selectivity * gs.Compute(0b1000).selectivity;
  EXPECT_NEAR(lhs, rhs, 1e-12);
}

TEST_F(GetSelectivityTest, J0PoolBestErrorByHand) {
  // With base histograms only, every admissible decomposition peels the
  // filters (conditioned on the rest) before the joins — join factors
  // conditioned on filters are pruned per Section 3.4 — so the best
  // chain is (f_R|3 preds)(f_T|2 joins)(j_RS|j_ST)(j_ST): 3+2+1+0 = 6.
  BuildPool(0);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  const SelEstimate full = gs.Compute(query_.all_predicates());
  EXPECT_DOUBLE_EQ(full.error, 6.0);
}

TEST_F(GetSelectivityTest, RicherPoolNeverHurtsError) {
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  std::vector<double> errors;
  for (int j = 0; j <= 2; ++j) {
    BuildPool(j);
    matcher_.BindQuery(&query_);
    AtomicSelectivityProvider fresh(&matcher_, &n_ind_);
    GetSelectivity gs(&query_, &fresh);
    errors.push_back(gs.Compute(query_.all_predicates()).error);
  }
  EXPECT_LE(errors[1], errors[0]);
  EXPECT_LE(errors[2], errors[1]);
  EXPECT_LT(errors[2], errors[0]);  // SITs must strictly help here
}

TEST_F(GetSelectivityTest, MatchesExhaustiveMinimumNInd) {
  // Theorem 1: the DP must equal the exhaustive minimum over the pruned
  // (separable-first) space, and must not be beaten by the full space.
  for (int j = 0; j <= 2; ++j) {
    BuildPool(j);
    AtomicSelectivityProvider fa(&matcher_, &n_ind_);
    GetSelectivity gs(&query_, &fa);
    const SelEstimate dp = gs.Compute(query_.all_predicates());
    const ExhaustiveResult pruned =
        ExhaustiveBest(query_, query_.all_predicates(), &fa, true);
    const ExhaustiveResult full =
        ExhaustiveBest(query_, query_.all_predicates(), &fa, false);
    EXPECT_DOUBLE_EQ(dp.error, pruned.error) << "J" << j;
    EXPECT_LE(dp.error, full.error + 1e-12) << "J" << j;
  }
}

TEST_F(GetSelectivityTest, MatchesExhaustiveMinimumDiff) {
  for (int j = 0; j <= 2; ++j) {
    BuildPool(j);
    AtomicSelectivityProvider fa(&matcher_, &diff_);
    GetSelectivity gs(&query_, &fa);
    const SelEstimate dp = gs.Compute(query_.all_predicates());
    const ExhaustiveResult pruned =
        ExhaustiveBest(query_, query_.all_predicates(), &fa, true);
    EXPECT_NEAR(dp.error, pruned.error, 1e-12) << "J" << j;
  }
}

TEST_F(GetSelectivityTest, MemoizationAnswersRepeats) {
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  const SelEstimate first = gs.Compute(query_.all_predicates());
  const uint64_t subproblems = gs.stats().subproblems;
  EXPECT_GT(subproblems, 0u);
  matcher_.ResetCallCounter();
  // Re-requesting anything the DP already solved costs nothing.
  const SelEstimate again = gs.Compute(query_.all_predicates());
  EXPECT_DOUBLE_EQ(again.selectivity, first.selectivity);
  EXPECT_DOUBLE_EQ(again.error, first.error);
  EXPECT_EQ(gs.stats().subproblems, subproblems);
  EXPECT_EQ(matcher_.num_calls(), 0u);
  EXPECT_GT(gs.stats().memo_hits, 0u);
}

TEST_F(GetSelectivityTest, SubQueryEstimatesComeForFree) {
  // The paper: "As a byproduct of getSelectivity(R, P), we get the most
  // accurate selectivity estimation for every sub-query".
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  gs.Compute(query_.all_predicates());
  matcher_.ResetCallCounter();
  gs.Compute(0b0111);  // arbitrary sub-query
  EXPECT_EQ(matcher_.num_calls(), 0u);  // fully answered from the memo
}

TEST_F(GetSelectivityTest, OptOracleAtLeastMatchesNoSitAccuracy) {
  // The oracle ranking can't make estimation exact (no SIT conditions on
  // filter predicates), but it must not lose to the fully independent
  // plan on the full query's estimate.
  BuildPool(2);
  OptError opt(&eval_);
  AtomicSelectivityProvider fa(&matcher_, &opt);
  GetSelectivity gs(&query_, &fa);
  const double est = gs.Compute(query_.all_predicates()).selectivity;
  const double truth = eval_.TrueSelectivity(query_, query_.all_predicates());

  BuildPool(0);
  AtomicSelectivityProvider fa0(&matcher_, &opt);
  GetSelectivity gs0(&query_, &fa0);
  const double naive = gs0.Compute(query_.all_predicates()).selectivity;
  EXPECT_LE(std::abs(est - truth), std::abs(naive - truth) + 1e-12);
}

TEST_F(GetSelectivityTest, ExplainMentionsChosenSits) {
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  gs.Compute(query_.all_predicates());
  const std::string explain = gs.Explain(query_.all_predicates());
  EXPECT_NE(explain.find("Sel("), std::string::npos);
  EXPECT_NE(explain.find("sit#"), std::string::npos);
}

TEST_F(GetSelectivityTest, FactorEstimateMemoKeysOnTheChosenSits) {
  // One DP in which the factor {p0} (the filter on R.a) wins twice with
  // different statistics: under a tail holding the join p1 it takes
  // SIT(R.a | p1); alone it takes the base histogram. The per-Compute()
  // factor-estimate memo must keep the two apart: every recorded factor
  // equals a direct Estimate of its own choice, bit for bit.
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa);
  DerivationDag dag;
  gs.set_recorder(&dag);
  gs.Compute(query_.all_predicates());

  bool head_p0_base = false;
  bool head_p0_conditioned = false;
  int factors = 0;
  for (const DerivationNode& node : dag.nodes()) {
    if (node.kind != DerivKind::kConditionalFactor) continue;
    ++factors;
    FactorChoice choice;
    choice.feasible = true;
    for (const SitApplication& app : node.sits) {
      choice.sits.Append({&pool_.sit(app.sit_id), app.hypothesis});
      if (node.head == 0b0001) {
        (app.is_base ? head_p0_base : head_p0_conditioned) = true;
      }
    }
    const double direct = fa.Estimate(query_, node.head, choice);
    EXPECT_EQ(std::memcmp(&direct, &node.head_selectivity, sizeof(double)),
              0)
        << "subset " << node.subset << " head " << node.head << ": memo "
        << node.head_selectivity << ", direct " << direct;
  }
  EXPECT_GT(factors, 2);
  EXPECT_TRUE(head_p0_base);
  EXPECT_TRUE(head_p0_conditioned);
}

TEST_F(GetSelectivityTest, TimingSplitAccumulates) {
  BuildPool(2);
  AtomicSelectivityProvider fa(&matcher_, &diff_);
  GetSelectivity gs(&query_, &fa);
  gs.Compute(query_.all_predicates());
  EXPECT_GT(gs.stats().analysis_seconds, 0.0);
  EXPECT_GT(gs.stats().histogram_seconds, 0.0);
  EXPECT_GT(gs.stats().atomic_considered, 0u);
}

}  // namespace
}  // namespace condsel
