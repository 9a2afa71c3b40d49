// Service-level telemetry: request counters, latency quantiles, and the
// GsStats total across attempts.
//
// Everything here is written from many session threads at once, so the
// counters are relaxed atomics (exactness of *sums* matters; ordering
// between counters does not — invariants are asserted only at quiescence)
// and the latency histogram is a fixed array of atomic buckets.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/thread_annotations.h"
#include "condsel/selectivity/budget.h"

namespace condsel {

// Log2-bucketed latency histogram over [1us, ~1.2h], lock-free recording.
class LatencyRecorder {
 public:
  void Record(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_seconds() const;

  // Nearest-rank quantile (0 < q <= 1) as the upper edge of the bucket
  // holding sample ceil(q*n); 0 when nothing was recorded. Bucket edges
  // double, so the estimate is within 2x of the true quantile — the
  // right fidelity for p50/p99 overload telemetry, at zero contention.
  double QuantileSeconds(double q) const;

 private:
  static constexpr int kBuckets = 32;  // bucket i: [2^i, 2^(i+1)) us
  static int BucketFor(double seconds);

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> total_seconds_{0.0};
};

// A point-in-time copy of the service's counters (taken with relaxed
// loads; exact at quiescence, approximately consistent under load).
struct ServiceStatsSnapshot {
  // Request lifecycle.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // terminal failures returned to the caller
  // Admission outcomes.
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t queue_timeouts = 0;
  // Retry machinery.
  uint64_t retries = 0;
  uint64_t transient_faults = 0;  // attempts that failed retryably
  uint64_t no_retry_deadline = 0;  // retry denied: deadline exhausted
  // Degradation ladder.
  uint64_t mode_submissions[3] = {0, 0, 0};  // indexed by ServiceMode
  uint64_t step_downs = 0;
  uint64_t step_ups = 0;
  // Snapshot lifecycle.
  uint64_t epochs_published = 0;
  uint64_t failed_swaps = 0;
  uint64_t incoherent_snapshots = 0;  // torn-publication detector hits
  // Latency (seconds).
  uint64_t latency_count = 0;
  double latency_total_seconds = 0.0;
  double latency_p50_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  // Aggregate search work across all attempts (the ledger total).
  GsStats search;
};

// The mutable counter block behind ServiceStatsSnapshot.
struct ServiceCounters {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> rejected_quota{0};
  std::atomic<uint64_t> rejected_queue_full{0};
  std::atomic<uint64_t> queue_timeouts{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> transient_faults{0};
  std::atomic<uint64_t> no_retry_deadline{0};
  std::atomic<uint64_t> mode_submissions[3] = {};
  std::atomic<uint64_t> incoherent_snapshots{0};
  LatencyRecorder latency;
};

// The service-wide GsStats total. Every attempt runs on its own
// per-attempt Estimator, so each finished attempt's stats are added once.
class GsStatsLedger {
 public:
  // Adds one finished attempt's stats. The caller reads them while no
  // Compute() on that estimator is in flight (GetSelectivity is
  // externally synchronized).
  void Add(const GsStats& attempt) CONDSEL_EXCLUDES(mu_);

  GsStats total() const CONDSEL_EXCLUDES(mu_);

 private:
  mutable OrderedMutex mu_{lock_rank::kGsStatsLedger, "GsStatsLedger::mu_"};
  GsStats total_ CONDSEL_GUARDED_BY(mu_);
};

}  // namespace condsel
