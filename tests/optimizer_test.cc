// Tests for the Cascades-lite memo and the Section 4.2 integration.

#include <gtest/gtest.h>

#include "condsel/exec/evaluator.h"
#include "condsel/optimizer/integration.h"
#include "condsel/optimizer/memo.h"
#include "condsel/optimizer/rules.h"
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

Query ThreeTableQuery() {
  return Query({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)});    // 3
}

TEST(MemoTest, GroupsDeduplicate) {
  const Query q = ThreeTableQuery();
  Memo memo(&q);
  const int a = memo.GetOrCreateGroup(0b0011, q.TablesOfSubset(0b0011));
  const int b = memo.GetOrCreateGroup(0b0011, q.TablesOfSubset(0b0011));
  EXPECT_EQ(a, b);
  EXPECT_EQ(memo.num_groups(), 1);
}

TEST(MemoTest, ExplorationGeneratesAllLastOperators) {
  const Query q = ThreeTableQuery();
  Memo memo(&q);
  const int root = BuildAndExplore(&memo, q.all_predicates());
  const Group& g = memo.group(root);
  // Every one of the 4 predicates can be applied last here: both filters
  // (SELECT entries) and both joins (each splits the 3 tables in two).
  EXPECT_EQ(g.exprs.size(), 4u);
  int selects = 0, joins = 0;
  for (const MemoExpr& e : g.exprs) {
    if (e.op == OpKind::kSelect) {
      ++selects;
      EXPECT_EQ(e.inputs.size(), 1u);
    }
    if (e.op == OpKind::kJoin) {
      ++joins;
      EXPECT_EQ(e.inputs.size(), 2u);
    }
  }
  EXPECT_EQ(selects, 2);
  EXPECT_EQ(joins, 2);
}

TEST(MemoTest, ScanGroupsAreLeaves) {
  const Query q = ThreeTableQuery();
  Memo memo(&q);
  BuildAndExplore(&memo, q.all_predicates());
  int scans = 0;
  for (int i = 0; i < memo.num_groups(); ++i) {
    const Group& g = memo.group(i);
    if (g.preds == 0) {
      ASSERT_EQ(g.exprs.size(), 1u);
      EXPECT_EQ(g.exprs[0].op, OpKind::kScan);
      EXPECT_TRUE(g.exprs[0].inputs.empty());
      ++scans;
    }
  }
  EXPECT_GE(scans, 1);
}

TEST(MemoTest, EveryEntrySplitsItsGroup) {
  const Query q = ThreeTableQuery();
  Memo memo(&q);
  BuildAndExplore(&memo, q.all_predicates());
  for (int i = 0; i < memo.num_groups(); ++i) {
    const Group& g = memo.group(i);
    for (const MemoExpr& e : g.exprs) {
      if (e.op == OpKind::kScan) continue;
      PredSet inputs = e.predicate >= 0 ? (1u << e.predicate) : 0u;
      TableSet tables = 0;
      for (int in : e.inputs) {
        inputs |= memo.group(in).preds;
        tables |= memo.group(in).tables;
      }
      EXPECT_EQ(inputs, g.preds);
      EXPECT_EQ(tables, g.tables);
    }
  }
}

TEST(MemoTest, ToStringMentionsOperators) {
  const Query q = ThreeTableQuery();
  Memo memo(&q);
  BuildAndExplore(&memo, q.all_predicates());
  const std::string s = memo.ToString();
  EXPECT_NE(s.find("JOIN"), std::string::npos);
  EXPECT_NE(s.find("SELECT"), std::string::npos);
  EXPECT_NE(s.find("SCAN"), std::string::npos);
}

class CoupledTest : public ::testing::Test {
 protected:
  CoupledTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_(ThreeTableQuery()),
        matcher_(&pool_) {}

  void BuildPool(int j) {
    pool_ = GenerateSitPool({query_}, j, builder_);
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
};

TEST_F(CoupledTest, AgreesWithDpOnSinglePredicates) {
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  AtomicSelectivityProvider fa2(&matcher_, &n_ind_);
  GetSelectivity gs(&query_, &fa2);
  for (int i = 0; i < query_.num_predicates(); ++i) {
    EXPECT_NEAR(coupled.TryEstimate(1u << i).value().selectivity,
                gs.Compute(1u << i).selectivity, 1e-12);
  }
}

TEST_F(CoupledTest, NeverBeatsFullDp) {
  // Section 4.2: the coupled search is pruned by the optimizer, so its
  // best error is >= the full DP's (and often equal).
  for (int j = 0; j <= 2; ++j) {
    BuildPool(j);
    AtomicSelectivityProvider fa(&matcher_, &n_ind_);
    OptimizerCoupledEstimator coupled(&query_, &fa);
    AtomicSelectivityProvider fa2(&matcher_, &n_ind_);
    GetSelectivity gs(&query_, &fa2);
    const double coupled_err =
        coupled.TryEstimate(query_.all_predicates()).value().error;
    const double dp_err = gs.Compute(query_.all_predicates()).error;
    EXPECT_GE(coupled_err, dp_err - 1e-12) << "J" << j;
  }
}

TEST_F(CoupledTest, MemoizesGroups) {
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  coupled.TryEstimate(query_.all_predicates()).value();
  const uint64_t entries = coupled.entries_considered();
  // Sub-plan requests are answered from the per-group cache.
  coupled.TryEstimate(0b0011).value();
  EXPECT_EQ(coupled.entries_considered(), entries);
}

TEST_F(CoupledTest, EstimatesAreProbabilities) {
  BuildPool(2);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  for (PredSet p = 1; p <= query_.all_predicates(); ++p) {
    const double sel = coupled.TryEstimate(p).value().selectivity;
    EXPECT_GE(sel, 0.0);
    EXPECT_LE(sel, 1.0 + 1e-9);
  }
}

TEST_F(CoupledTest, TryEstimateRejectsForeignPredicates) {
  BuildPool(1);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  // Bit 5 is outside the bound query's 4 predicates.
  const StatusOr<SelEstimate> r = coupled.TryEstimate(1u << 5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CoupledTest, TryEstimateReportsUnestimableGroups) {
  // An empty pool approximates nothing: every memo group must come back
  // FAILED_PRECONDITION instead of aborting the process.
  pool_ = SitPool();
  matcher_.BindQuery(&query_);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  const StatusOr<SelEstimate> r =
      coupled.TryEstimate(query_.all_predicates());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("no estimable entry"),
            std::string::npos);
}

TEST_F(CoupledTest, TryEstimateMatchesEstimateOnSuccess) {
  BuildPool(2);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  OptimizerCoupledEstimator coupled(&query_, &fa);
  const StatusOr<SelEstimate> r =
      coupled.TryEstimate(query_.all_predicates());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().selectivity,
            coupled.TryEstimate(query_.all_predicates()).value().selectivity);
  EXPECT_EQ(r.value().error,
            coupled.TryEstimate(query_.all_predicates()).value().error);
}

}  // namespace
}  // namespace condsel
