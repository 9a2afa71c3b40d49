// The shared-provider contract of budget.h: estimators that share one
// AtomicSelectivityProvider (and matcher) never disturb each other.
// Deadlines are per-call state passed down explicitly, never parked in the
// provider, so concurrent searches with armed deadlines produce
// bit-identical estimates, and an estimator killed mid-search by a
// throwing lookup leaves the provider clean for the next one. Providers
// over one pool also share its join-factor memo, so concurrent cold
// lookups must agree with a serial run bit for bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "condsel/catalog/part_stats.h"
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

// Re-seals `table` into `parts` sealed parts of near-equal size.
void Reseal(Catalog* catalog, TableId table, int parts) {
  const Table& old = catalog->table(table);
  Table resealed(old.schema());
  const size_t per_part =
      (old.num_rows() + static_cast<size_t>(parts) - 1) /
      static_cast<size_t>(parts);
  std::vector<int64_t> row(static_cast<size_t>(old.num_columns()));
  for (size_t r = 0; r < old.num_rows(); ++r) {
    for (ColumnId c = 0; c < old.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = old.value(r, c);
    }
    resealed.AppendRow(row);
    if ((r + 1) % per_part == 0) resealed.SealTail();
  }
  resealed.SealTail();
  catalog->mutable_table(table) = std::move(resealed);
}

// Every join predicate of `workload`, estimated alone as a join-only
// factor through one matcher and provider over `pool`.
std::vector<double> JoinOnlyEstimates(const std::vector<Query>& workload,
                                      const SitPool& pool) {
  NIndError n_ind;
  SitMatcher matcher(&pool);
  AtomicSelectivityProvider provider(&matcher, &n_ind);
  std::vector<double> out;
  for (const Query& q : workload) {
    matcher.BindQuery(&q);
    for (int j : SetElements(q.join_predicates())) {
      const PredSet factor = PredSet{1} << j;
      const FactorChoice c = provider.Score(q, factor, 0);
      out.push_back(c.feasible ? provider.Estimate(q, factor, c) : -1.0);
    }
  }
  return out;
}

// Eight threads, each with its own matcher and provider, estimate the
// join-only factors of a partitioned pool whose memo is cold, all at
// once: they race to claim the same slots and publish the same values.
// Whether a thread claims a slot, reads a published value, or finds a
// claimed slot with no value yet and computes, every estimate must equal
// a serial run's bit for bit. Ten rounds, each on a fresh cold copy,
// widen the window for a thread to meet a claimed, unpublished slot.
TEST_F(SharedProviderTest, ConcurrentColdJoinFactorsMatchSerial) {
  Reseal(&catalog_, catalog_.FindTable("fact"), 4);
  PartStatsMaintainer maintainer(&catalog_, workload_, 2, SitBuildOptions{});
  ASSERT_TRUE(maintainer.BuildAll().ok());
  StatusOr<std::shared_ptr<const SitPool>> merged = maintainer.MergedPool();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const SitPool& pool = *merged.value();

  // The factors cover both statistic shapes: fact-side pieces joined to
  // a flat dimension, and flat dimension-to-subdimension joins.
  int partitioned = 0;
  int flat = 0;
  for (const Query& q : workload_) {
    for (int j : SetElements(q.join_predicates())) {
      const Sit* left = pool.FindBase(q.predicate(j).left());
      const Sit* right = pool.FindBase(q.predicate(j).right());
      ASSERT_NE(left, nullptr);
      ASSERT_NE(right, nullptr);
      if (left->is_partitioned() || right->is_partitioned()) {
        ++partitioned;
      } else {
        ++flat;
      }
    }
  }
  EXPECT_GT(partitioned, 0);
  EXPECT_GT(flat, 0);

  const std::vector<double> serial = JoinOnlyEstimates(workload_, pool);
  for (const double v : serial) EXPECT_GE(v, 0.0) << "infeasible factor";

  // Each round races on a fresh copy: a copy starts with an empty memo.
  constexpr int kRounds = 10;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    const SitPool cold = pool;
    std::vector<std::vector<double>> got(kThreads);
    std::latch start(kThreads);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          got[static_cast<size_t>(t)] = JoinOnlyEstimates(workload_, cold);
        });
      }
    }
    for (int t = 0; t < kThreads; ++t) {
      const std::vector<double>& g = got[static_cast<size_t>(t)];
      ASSERT_EQ(g.size(), serial.size()) << "thread " << t;
      for (size_t k = 0; k < g.size(); ++k) {
        EXPECT_EQ(std::memcmp(&g[k], &serial[k], sizeof(double)), 0)
            << "round " << round << ", thread " << t << ", factor " << k
            << ": " << Hex(g[k]) << " vs " << Hex(serial[k]);
      }
    }
  }
}

}  // namespace
}  // namespace condsel
