// The shared-provider contract of budget.h: estimators that share one
// AtomicSelectivityProvider (and matcher) never disturb each other.
// Deadlines are per-call state passed down explicitly, never parked in the
// provider, so concurrent searches with armed deadlines produce
// bit-identical estimates, and an estimator killed mid-search by a
// throwing lookup leaves the provider clean for the next one.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "condsel/common/fault_injector.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/harness/metrics.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

class SharedProviderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SnowflakeOptions sopt;
    sopt.scale = 0.01;
    catalog_ = BuildSnowflake(sopt);
    cache_ = std::make_unique<CardinalityCache>();
    evaluator_ = std::make_unique<Evaluator>(&catalog_, cache_.get());
    builder_ = std::make_unique<SitBuilder>(evaluator_.get(),
                                            SitBuildOptions{});
    WorkloadOptions wopt;
    wopt.num_queries = 3;
    wopt.num_joins = 3;
    wopt.num_filters = 3;
    wopt.seed = 7;
    workload_ = GenerateWorkload(catalog_, evaluator_.get(), wopt);
    pool_ = GenerateSitPool(workload_, 2, *builder_);
  }

  // One "sel err" hexfloat pair per SubPlanFamily estimate of `q`.
  static std::vector<std::string> Transcript(const Query& q,
                                             GetSelectivity* gs) {
    std::vector<std::string> lines;
    for (PredSet p : SubPlanFamily(q)) {
      const SelEstimate e = gs->Compute(p);
      lines.push_back(Hex(e.selectivity) + " " + Hex(e.error));
    }
    return lines;
  }

  Catalog catalog_;
  std::unique_ptr<CardinalityCache> cache_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<SitBuilder> builder_;
  std::vector<Query> workload_;
  SitPool pool_;
};

// Two estimation sessions sharing one provider (and matcher), both with
// armed deadlines, running their searches concurrently: the per-call
// deadline contract says neither can observe the other's clock, so both
// transcripts must be bit-identical to an undisturbed baseline. Under
// TSan this is the regression test for the set_deadline clobber race.
TEST_F(SharedProviderTest, ConcurrentComputeOnSharedProvider) {
  DiffError diff;
  const Query& q = workload_.front();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&q);
  AtomicSelectivityProvider provider(&matcher, &diff);

  std::vector<std::string> baseline;
  {
    GetSelectivity gs(&q, &provider, nullptr);
    baseline = Transcript(q, &gs);
  }

  // A generous deadline keeps both sessions' clocks armed for the whole
  // search without ever expiring: every Score call carries a live
  // per-call deadline, the worst case for cross-session interference.
  EstimationBudget budget_a;
  budget_a.deadline_seconds = 3600.0;
  EstimationBudget budget_b = budget_a;
  GetSelectivity gs_a(&q, &provider, &budget_a);
  GetSelectivity gs_b(&q, &provider, &budget_b);

  std::vector<std::string> lines_a;
  std::vector<std::string> lines_b;
  {
    std::jthread ta([&] { lines_a = Transcript(q, &gs_a); });
    std::jthread tb([&] { lines_b = Transcript(q, &gs_b); });
  }
  EXPECT_EQ(baseline, lines_a);
  EXPECT_EQ(baseline, lines_b);
}

// An estimator killed mid-search by a throwing statistics lookup must not
// poison the shared provider: after the search unwinds (and the estimator
// is destroyed), a second estimator on the same provider — with the
// slow-lookup fault armed, so the provider's scoring path runs its full
// candidate loops — still produces bit-identical estimates. Before the
// per-call deadline contract, the destroyed estimator's deadline pointer
// stayed parked in the provider, and this scenario read freed memory.
TEST_F(SharedProviderTest, ThrowingLookupLeavesSharedProviderClean) {
  DiffError diff;
  const Query& q = workload_.front();
  SitMatcher matcher(&pool_);
  matcher.BindQuery(&q);
  AtomicSelectivityProvider provider(&matcher, &diff);

  std::vector<std::string> baseline;
  {
    GetSelectivity gs(&q, &provider, nullptr);
    baseline = Transcript(q, &gs);
  }

  EstimationBudget budget;
  budget.deadline_seconds = 3600.0;  // armed when the throw unwinds
  {
    GetSelectivity doomed(&q, &provider, &budget);
    ScopedFault boom(Fault::kThrowAtomicLookup);
    EXPECT_THROW(doomed.Compute(q.all_predicates()), std::runtime_error);
  }  // `doomed` (and its Deadline) destroyed here

  ScopedFault slow(Fault::kSlowAtomicLookup);
  GetSelectivity gs(&q, &provider, nullptr);
  EXPECT_EQ(baseline, Transcript(q, &gs));
}

}  // namespace
}  // namespace condsel
