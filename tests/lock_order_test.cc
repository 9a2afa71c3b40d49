// Runtime lock-order enforcement (common/ordered_mutex.h).
//
// Two halves. The death tests prove the checker *can* fail: a
// deliberately inverted acquisition, a self-relock, and a same-rank pair
// taken against address order must each abort with both mutex names and
// ranks in the message — the same discipline as the analyzer's mutation
// fixtures (a checker whose failure mode is unproven is decoration). The
// soak proves the declared order *holds* under real contention: a
// service Submit storm against snapshot refreshes plus standalone
// GetSelectivity searches, all with enforcement forced on; the run
// completing (no abort) is the assertion of zero violations, and
// checks_performed() advancing proves enforcement was actually live —
// an env-var typo cannot silently turn the soak into a no-op.
//
// The soak also asserts the overload-telemetry fields the census in
// tools/condsel_model.py tracks (queue-full/timeout rejections and the
// latency aggregate), keeping every ServiceStatsSnapshot field
// test-referenced.
//
// CI runs this suite in the TSan job's lock-order step with
// CONDSEL_LOCK_ORDER=1 exported; the tests force-enable enforcement
// themselves as well so a plain `ctest` run checks the same contract.

#include "condsel/common/ordered_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
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
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

namespace loi = lock_order_internal;

class EnforcementScope {
 public:
  explicit EnforcementScope(bool enabled) {
    loi::ForceEnabledForTesting(enabled);
  }
  ~EnforcementScope() { loi::ForceEnabledForTesting(true); }
};

TEST(OrderedMutexTest, InOrderAcquisitionIsCountedAndClean) {
  const EnforcementScope scope(true);
  OrderedMutex outer(10, "test_outer");
  OrderedMutex inner(20, "test_inner");
  const uint64_t before = loi::checks_performed();
  {
    const std::lock_guard<OrderedMutex> a(outer);
    const std::lock_guard<OrderedMutex> b(inner);
  }
  {
    // Re-acquiring after release is not nesting; any order is legal.
    const std::lock_guard<OrderedMutex> b(inner);
  }
  EXPECT_EQ(loi::checks_performed(), before + 3);
}

TEST(OrderedMutexTest, DisabledEnforcementChecksNothing) {
  const EnforcementScope scope(false);
  OrderedMutex outer(10, "test_outer");
  OrderedMutex inner(20, "test_inner");
  const uint64_t before = loi::checks_performed();
  {
    // Inverted, but harmless without a concurrent opposite-order holder;
    // with enforcement off it must neither abort nor count.
    const std::lock_guard<OrderedMutex> b(inner);
    // condsel: allow(lock-cycle)
    const std::lock_guard<OrderedMutex> a(outer);
  }
  EXPECT_EQ(loi::checks_performed(), before);
}

TEST(OrderedMutexTest, SharedAndExclusiveInterleaveInOrder) {
  const EnforcementScope scope(true);
  OrderedMutex outer(10, "test_outer");
  OrderedSharedMutex inner(20, "test_shared_inner");
  {
    const std::lock_guard<OrderedMutex> a(outer);
    const std::shared_lock<OrderedSharedMutex> b(inner);
  }
  {
    const std::unique_lock<OrderedSharedMutex> w(inner);
  }
}

TEST(OrderedMutexTest, SameRankAscendingAddressIsLegal) {
  const EnforcementScope scope(true);
  // Same rank, distinct instances of one family. Ascending address is
  // the sanctioned pair order.
  OrderedMutex a(50, "pair_a");
  OrderedMutex b(50, "pair_b");
  OrderedMutex* lo = &a < &b ? &a : &b;
  OrderedMutex* hi = &a < &b ? &b : &a;
  const std::lock_guard<OrderedMutex> first(*lo);
  const std::lock_guard<OrderedMutex> second(*hi);
}

TEST(OrderedMutexDeathTest, InvertedAcquisitionAbortsWithBothNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        loi::ForceEnabledForTesting(true);
        OrderedMutex outer(10, "death_outer");
        OrderedMutex inner(20, "death_inner");
        const std::lock_guard<OrderedMutex> b(inner);
        // condsel: allow(lock-cycle)
        const std::lock_guard<OrderedMutex> a(outer);
      },
      "lock-order violation.*\"death_outer\".*rank 10.*"
      "\"death_inner\".*rank 20");
}

TEST(OrderedMutexDeathTest, SharedAcquisitionIsOrderCheckedToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        loi::ForceEnabledForTesting(true);
        OrderedSharedMutex outer(10, "death_shared_outer");
        OrderedMutex inner(20, "death_inner");
        const std::lock_guard<OrderedMutex> b(inner);
        // condsel: allow(lock-cycle)
        const std::shared_lock<OrderedSharedMutex> a(outer);
      },
      "lock-order violation.*\"death_shared_outer\".*rank 10.*"
      "\"death_inner\".*rank 20");
}

TEST(OrderedMutexDeathTest, SelfRelockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        loi::ForceEnabledForTesting(true);
        OrderedMutex mu(10, "death_self");
        const std::lock_guard<OrderedMutex> a(mu);
        // condsel: allow(lock-cycle)
        const std::lock_guard<OrderedMutex> b(mu);
      },
      "lock-order violation.*\"death_self\".*rank 10.*"
      "\"death_self\".*rank 10");
}

TEST(OrderedMutexDeathTest, SameRankDescendingAddressAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        loi::ForceEnabledForTesting(true);
        OrderedMutex a(50, "death_pair_a");
        OrderedMutex b(50, "death_pair_b");
        OrderedMutex* lo = &a < &b ? &a : &b;
        OrderedMutex* hi = &a < &b ? &b : &a;
        const std::lock_guard<OrderedMutex> first(*hi);
        // condsel: allow(lock-cycle)
        const std::lock_guard<OrderedMutex> second(*lo);
      },
      "lock-order violation.*rank 50.*rank 50");
}

// ------------------------------------------------------------------------
// The soak: the migrated subsystems under storm, enforcement live.

class LockOrderSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    loi::ForceEnabledForTesting(true);
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
    wopt.seed = 11;
    workload_ = GenerateWorkload(catalog_, evaluator_.get(), wopt);
    pools_.push_back(GenerateSitPool(workload_, 2, *builder_));
    pools_.push_back(GenerateSitPool(workload_, 0, *builder_));
  }

  Catalog catalog_;
  std::unique_ptr<CardinalityCache> cache_;
  std::unique_ptr<Evaluator> evaluator_;
  std::unique_ptr<SitBuilder> builder_;
  std::vector<Query> workload_;
  std::vector<SitPool> pools_;
};

TEST_F(LockOrderSoakTest, StormTripsNoOrderViolation) {
  constexpr int kSessionThreads = 6;
  constexpr int kSubmitsPerThread = 16;
  constexpr int kRefreshes = 20;
  constexpr int kComputeThreads = 2;

  ServiceOptions options;
  options.admission.max_concurrent = 3;
  options.admission.queue_limit = 1;  // tiny queue: shedding + timeouts
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_seconds = 1e-5;
  options.retry.max_backoff_seconds = 1e-3;
  options.max_queue_wait_seconds = 0.005;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pools_[0]).ok());

  const uint64_t checks_before = loi::checks_performed();
  std::atomic<bool> stop{false};

  // Session storm: admission (kAdmission) -> snapshot acquire ->
  // estimation (shape cache) -> stats ledger (kGsStatsLedger) -> breaker
  // (kCircuitBreaker), every path nested under the declared order or the
  // process dies.
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessionThreads; ++t) {
    sessions.emplace_back([&, t]() {
      const std::string tenant = "tenant-" + std::to_string(t % 2);
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        const Query& q = workload_[(t + i) % workload_.size()];
        SubmitOptions submit;
        submit.deadline_seconds = i % 2 == 0 ? 0.05 : 0.0;
        (void)service.Submit(tenant, q, submit);
      }
    });
  }

  // Refresh storm: refresh_mu_ -> epoch_mu_ nesting, with slow and
  // failing refreshes pulsing FaultInjector::mu_ writes (a leaf under
  // everything).
  std::thread refresher([&]() {
    for (int i = 0; i < kRefreshes; ++i) {
      const SitPool& pool = pools_[i % pools_.size()];
      if (i % 4 == 3) {
        const ScopedFault fault(Fault::kSlowRefresh);
        EXPECT_TRUE(service.Refresh(catalog_, pool).ok());
      } else {
        EXPECT_TRUE(service.Refresh(catalog_, pool).ok());
      }
      std::this_thread::yield();
    }
  });

  // Searches outside the service, racing the storm for the fault
  // injector and the shared pools.
  std::vector<std::thread> computes;
  for (int c = 0; c < kComputeThreads; ++c) {
    computes.emplace_back([&, c]() {
      DiffError diff;
      while (!stop.load(std::memory_order_relaxed)) {
        const Query& q = workload_[c % workload_.size()];
        SitMatcher matcher(&pools_[c % pools_.size()]);
        matcher.BindQuery(&q);
        AtomicSelectivityProvider provider(&matcher, &diff);
        GetSelectivity gs(&q, &provider);
        for (PredSet p : SubPlanFamily(q)) (void)gs.Compute(p);
      }
    });
  }

  for (std::thread& th : sessions) th.join();
  refresher.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : computes) th.join();

  // Reaching this line IS the zero-violations assertion (a violation
  // aborts); the counter proves enforcement was live, not defaulted off.
  EXPECT_GT(loi::checks_performed(), checks_before);

  // Overload telemetry the counter census tracks. The tiny queue makes
  // shedding near-certain, but the hard guarantees are the partition
  // bounds and the latency aggregate's internal consistency.
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSessionThreads) * kSubmitsPerThread);
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_LE(stats.rejected_queue_full + stats.queue_timeouts +
                stats.rejected_quota,
            stats.failed);
  EXPECT_EQ(stats.latency_count, stats.submitted);
  EXPECT_GT(stats.latency_total_seconds, 0.0);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_GE(stats.latency_p99_seconds, stats.latency_p50_seconds);
  // A worker that grabbed a snapshot handle just before the final refresh
  // can briefly keep an older epoch alive; all threads are joined here, so
  // at most the ledger still lists handles the last queries released late.
  EXPECT_GE(service.live_epochs(), 1u);
  EXPECT_LE(service.live_epochs(), 2u);
}

}  // namespace
}  // namespace condsel
