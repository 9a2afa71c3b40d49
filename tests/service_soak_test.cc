// Chaos soak for the EstimationService.
//
// Many session threads hammer Submit() while a refresher thread swaps
// snapshot epochs underneath them and a fault thread pulses transient
// faults (throwing lookups, slow masked lookups, failed swaps, slow
// refreshes). The invariants under all of that:
//  - no torn snapshot is ever observed (every acquired handle is coherent
//    — the locked epoch swap never exposes a half-published bundle);
//  - the telemetry books balance exactly at quiescence: every submitted
//    request is accounted as completed or failed, with one latency sample
//    each, and rejections partition by outcome;
//  - old epochs retire only by refcount — after the storm, the live set
//    collapses back to the current epoch;
//  - each published epoch's statistics still estimate deterministically:
//    every epoch's pool gives the same transcript after the chaos ends as
//    before it started (the storm cannot have corrupted shared
//    statistics).
//
// Run under TSan in CI (the chaos-soak step) with CONDSEL_AUDIT=1.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/fault_injector.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/harness/metrics.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/service/service.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"
#include "test_util.h"

namespace condsel {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The full estimate transcript of `workload` against `pool`, the
// bit-identity probe for per-epoch determinism across the storm.
std::vector<std::string> Transcript(const std::vector<Query>& workload,
                                    const SitPool& pool) {
  DiffError diff;
  std::vector<std::string> lines;
  for (const Query& q : workload) {
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider provider(&matcher, &diff);
    GetSelectivity gs(&q, &provider);
    for (PredSet p : SubPlanFamily(q)) {
      const SelEstimate e = gs.Compute(p);
      lines.push_back(Hex(e.selectivity) + " " + Hex(e.error));
    }
  }
  return lines;
}

class ServiceSoakTest : public ::testing::Test {
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
    // Two statistics generations to rotate between epochs: the SIT-rich
    // pool and the base-histograms-only pool estimate differently, so a
    // session pinned to the wrong epoch would be visible.
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

TEST_F(ServiceSoakTest, ChaosSoak) {
  constexpr int kSessionThreads = 8;
  constexpr int kSubmitsPerThread = 24;
  constexpr int kRefreshes = 30;

  ServiceOptions options;
  options.admission.max_concurrent = 4;
  options.admission.queue_limit = 2;  // small queue: shedding must happen
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_seconds = 1e-5;
  options.retry.max_backoff_seconds = 1e-3;
  options.breaker.open_after = 2;
  options.breaker.close_after = 2;
  options.max_queue_wait_seconds = 0.02;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pools_[0]).ok());

  std::vector<std::vector<std::string>> before;
  for (const SitPool& pool : pools_) {
    before.push_back(Transcript(workload_, pool));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> err_count{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> out_of_range{0};

  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessionThreads; ++t) {
    sessions.emplace_back([&, t]() {
      const std::string tenant = "tenant-" + std::to_string(t % 3);
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        const Query& q = workload_[(t + i) % workload_.size()];
        SubmitOptions submit;
        // A mix of tight, generous, and absent deadlines.
        submit.deadline_seconds =
            i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 0.05 : 5.0);
        const StatusOr<ServiceEstimate> r =
            service.Submit(tenant, q, submit);
        if (r.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
          const double sel = r.value().selectivity;
          if (!(sel >= 0.0) || !(sel <= 1.0) ||
              !(r.value().cardinality >= 0.0)) {
            out_of_range.fetch_add(1, std::memory_order_relaxed);
          }
          if (r.value().epoch == 0) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          err_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread refresher([&]() {
    for (int i = 0; i < kRefreshes; ++i) {
      const SitPool& pool = pools_[i % pools_.size()];
      if (i % 5 == 3) {
        // Some refreshes fail mid-swap; the current epoch must survive.
        const ScopedFault fault(Fault::kFailSnapshotSwap);
        const StatusOr<uint64_t> r = service.Refresh(catalog_, pool);
        EXPECT_FALSE(r.ok());
      } else if (i % 5 == 4) {
        // Some refreshes are slow; estimates must keep flowing (the stall
        // happens before any lock, never under the epoch lock).
        const ScopedFault fault(Fault::kSlowRefresh);
        EXPECT_TRUE(service.Refresh(catalog_, pool).ok());
      } else {
        EXPECT_TRUE(service.Refresh(catalog_, pool).ok());
      }
      std::this_thread::yield();
    }
  });

  std::thread fault_pulser([&]() {
    int pulse = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      switch (pulse++ % 3) {
        case 0: {
          const ScopedFault fault(Fault::kThrowAtomicLookup);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          break;
        }
        case 1: {
          // Slow lookups on a slice of the lattice only.
          const ScopedSlowLookupMask mask(0x5u);
          const ScopedFault fault(Fault::kSlowAtomicLookup);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          break;
        }
        default:
          // Fault-free window so sessions also see clean estimates.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          break;
      }
    }
  });

  for (std::thread& th : sessions) th.join();
  stop.store(true, std::memory_order_relaxed);
  refresher.join();
  fault_pulser.join();

  // Books balance exactly at quiescence.
  const ServiceStatsSnapshot stats = service.Stats();
  const uint64_t expected_submits =
      static_cast<uint64_t>(kSessionThreads) * kSubmitsPerThread;
  EXPECT_EQ(stats.submitted, expected_submits);
  EXPECT_EQ(stats.completed, ok_count.load());
  EXPECT_EQ(stats.failed, err_count.load());
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_EQ(stats.latency_count, stats.submitted);
  EXPECT_GT(stats.completed, 0u);  // the storm never starved everyone

  // Zero torn snapshots, zero out-of-range estimates.
  EXPECT_EQ(stats.incoherent_snapshots, 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(out_of_range.load(), 0u);

  // Refresh accounting: every injected swap failure was counted, every
  // successful refresh published (plus the seed epoch).
  EXPECT_EQ(stats.failed_swaps, static_cast<uint64_t>(kRefreshes / 5));
  EXPECT_EQ(stats.epochs_published,
            1u + kRefreshes - static_cast<uint64_t>(kRefreshes / 5));

  // Every session handle has been dropped: the storm's epochs retire and
  // only the current one stays live.
  EXPECT_EQ(service.live_epochs(), 1u);

  // Per-epoch determinism after the chaos: both statistics generations
  // still give the transcripts they gave before the storm — it did not
  // corrupt any shared statistics state.
  for (size_t k = 0; k < pools_.size(); ++k) {
    const std::vector<std::string> after = Transcript(workload_, pools_[k]);
    ASSERT_EQ(before[k].size(), after.size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(before[k][i], after[i]) << "pool " << k << " estimate " << i;
    }
  }
}

// A focused variant: sessions pin handles across refreshes and verify
// their pinned epoch's pool keeps estimating while newer epochs publish.
TEST_F(ServiceSoakTest, PinnedEpochSurvivesRefreshStorm) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pools_[0]).ok());

  std::atomic<bool> stop{false};
  std::thread refresher([&]() {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(
          service.Refresh(catalog_, pools_[++i % pools_.size()]).ok());
      std::this_thread::yield();
    }
  });

  const Query& q = workload_.front();
  double first = -1.0;
  uint64_t distinct_epochs = 0, last_epoch = 0;
  // At least 40 submits, and on until the storm has rotated the epoch
  // under us: on a loaded host 40 fast submits can finish before the
  // refresher's first swap. Bounded, so a stalled refresher fails the
  // rotation check below instead of hanging.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0;
       i < 40 || (distinct_epochs < 2 &&
                  std::chrono::steady_clock::now() < give_up);
       ++i) {
    const StatusOr<ServiceEstimate> r = service.Submit("t", q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.value().epoch != last_epoch) {
      ++distinct_epochs;
      last_epoch = r.value().epoch;
    }
    // The two pools alternate, so selectivities come from a two-value
    // set; whichever epoch a submit pinned, its estimate is finite and
    // in range.
    ASSERT_GE(r.value().selectivity, 0.0);
    ASSERT_LE(r.value().selectivity, 1.0);
    if (first < 0.0) first = r.value().selectivity;
  }
  stop.store(true, std::memory_order_relaxed);
  refresher.join();
  EXPECT_GT(distinct_epochs, 1u);  // the storm really rotated under us
  EXPECT_EQ(service.Stats().incoherent_snapshots, 0u);
}

// A maintenance thread streams ApplyDelta batches (inserts sealing new
// parts, deletes shrinking old ones) while session threads hammer
// Submit. The maintainer mutates its own catalog under maintenance_mu_;
// submits run against immutable snapshot copies, so the only shared
// state is the snapshot handle behind epoch_mu_ — TSan (the CI chaos-soak
// step) proves that claim.
TEST(ServiceDeltaSoakTest, DeltaMaintenanceStorm) {
  constexpr int kSessionThreads = 4;
  constexpr int kSubmitsPerThread = 12;
  constexpr int kDeltas = 15;

  Catalog catalog;
  {
    Table fact = test::MakeTable("F", {"a", "d_id"}, {});
    int row = 0;
    for (int p = 0; p < 3; ++p) {
      for (int r = 0; r < 20; ++r, ++row) {
        fact.AppendRow({(row * 7) % 100, row % 10});
      }
      fact.SealTail();
    }
    catalog.AddTable(std::move(fact));
    std::vector<std::vector<int64_t>> dim_rows;
    for (int64_t i = 0; i < 10; ++i) dim_rows.push_back({i, i * 3});
    Table dim = test::MakeTable("D", {"pk", "c"}, dim_rows, {true, false});
    dim.SealTail();
    catalog.AddTable(std::move(dim));
  }
  const Query query({Predicate::Join({0, 1}, {1, 0}),
                     Predicate::Filter({0, 0}, 10, 60)});
  PartStatsMaintainer maintainer(&catalog, {query}, 1,
                                 {HistogramType::kMaxDiff, 64});

  EstimationService service;
  ASSERT_TRUE(service.EnableDeltaMaintenance(&maintainer).ok());

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> bad_estimates{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> deltas_failed{0};

  std::thread maintenance([&]() {
    for (int i = 0; i < kDeltas; ++i) {
      DeltaBatch batch;
      batch.table = 0;
      batch.insert_rows = {{(i * 13) % 100, i % 10},
                           {(i * 31) % 100, (i + 3) % 10}};
      if (i % 4 == 3) batch.delete_rows = {0};
      if (!service.ApplyDelta(batch).ok()) {
        deltas_failed.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessionThreads; ++t) {
    sessions.emplace_back([&, t]() {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        const StatusOr<ServiceEstimate> r = service.Submit(tenant, query);
        if (!r.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ok_count.fetch_add(1, std::memory_order_relaxed);
        const double sel = r.value().selectivity;
        if (!(sel >= 0.0) || !(sel <= 1.0) || r.value().epoch == 0) {
          bad_estimates.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  maintenance.join();
  for (std::thread& s : sessions) s.join();

  EXPECT_EQ(deltas_failed.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(bad_estimates.load(), 0u);
  EXPECT_EQ(ok_count.load(),
            static_cast<uint64_t>(kSessionThreads * kSubmitsPerThread));
  // Every delta published exactly one epoch on top of the enable epoch.
  EXPECT_EQ(service.current_epoch(), 1u + kDeltas);
  EXPECT_EQ(service.Stats().incoherent_snapshots, 0u);

  // At quiescence the service serves exactly the maintainer's final
  // statistics, bit for bit.
  SitPool pool = *maintainer.MergedPool().value();
  Estimator direct(&maintainer.catalog(), &pool, Ranking::kDiff);
  const StatusOr<double> sel = direct.TryEstimateSelectivity(query);
  ASSERT_TRUE(sel.ok());
  const StatusOr<ServiceEstimate> final_submit = service.Submit("t", query);
  ASSERT_TRUE(final_submit.ok());
  EXPECT_EQ(final_submit.value().selectivity, sel.value());
}

}  // namespace
}  // namespace condsel
