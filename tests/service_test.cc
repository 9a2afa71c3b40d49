// EstimationService unit and integration tests.
//
// Covers, table-driven where the behaviour is a decision table:
//  - retry classification and jittered backoff (deadline exhaustion never
//    retries, jitter stays inside its bounds, the stream is deterministic
//    per seed);
//  - token-bucket quotas and bounded-queue admission (every rejection is
//    an explicit outcome, never an unbounded wait);
//  - the hysteretic circuit-breaker ladder;
//  - GsStats aggregation: AddGsStats and the GsStatsLedger sum;
//  - snapshot epochs: pinning, refcount-driven retirement, failed swaps;
//  - the service facade end to end: bit-identity with a direct Estimator,
//    exact search books (one search per attempt), fault-driven retries,
//    degradation rungs and the capped rung's budget, and quota
//    accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/fault_injector.h"
#include "condsel/common/rng.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/service/admission.h"
#include "condsel/service/circuit_breaker.h"
#include "condsel/service/retry.h"
#include "condsel/service/service.h"
#include "condsel/service/service_stats.h"
#include "condsel/service/snapshot.h"
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

// ---------------------------------------------------------------------------
// Retry classification and backoff.

TEST(RetryTest, RetryableCodeClassification) {
  struct Case {
    StatusCode code;
    bool retryable;
  };
  const Case kCases[] = {
      {StatusCode::kUnavailable, true},
      {StatusCode::kDeadlineExceeded, true},
      {StatusCode::kInvalidArgument, false},
      {StatusCode::kNotFound, false},
      {StatusCode::kFailedPrecondition, false},
      {StatusCode::kResourceExhausted, false},
      {StatusCode::kDataLoss, false},
      {StatusCode::kInternal, false},
      // Retrying into overload amplifies the overload the rejection sheds.
      {StatusCode::kRejectedOverload, false},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(RetryableStatusCode(c.code), c.retryable)
        << StatusCodeName(c.code);
  }
}

TEST(RetryTest, DecideRetryTable) {
  const double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    StatusCode code;
    int attempt;
    double remaining;
    bool expect_retry;
    const char* expect_reason_substr;
  };
  const Case kCases[] = {
      {"transient retries", StatusCode::kUnavailable, 1, kInf, true, ""},
      {"deadline with budget left retries", StatusCode::kDeadlineExceeded, 1,
       10.0, true, ""},
      {"attempt limit is hard", StatusCode::kUnavailable, 3, kInf, false,
       "attempt limit"},
      {"terminal code never retries", StatusCode::kInvalidArgument, 1, kInf,
       false, ""},
      {"overload never retries", StatusCode::kRejectedOverload, 1, kInf,
       false, ""},
      {"exhausted deadline never retries", StatusCode::kUnavailable, 1, 0.0,
       false, "deadline exhausted"},
      {"deadline smaller than backoff never retries",
       StatusCode::kDeadlineExceeded, 1, 1e-9, false, "deadline exhausted"},
  };
  const RetryPolicy policy;
  for (const Case& c : kCases) {
    Rng rng(99);
    const RetryDecision d =
        DecideRetry(policy, c.code, c.attempt, c.remaining, &rng);
    EXPECT_EQ(d.retry, c.expect_retry) << c.name;
    EXPECT_EQ(d.deadline_exhausted,
              std::string(c.expect_reason_substr) == "deadline exhausted")
        << c.name;
    if (c.expect_reason_substr[0] != '\0') {
      EXPECT_NE(std::strstr(d.reason, c.expect_reason_substr), nullptr)
          << c.name << ": reason was '" << d.reason << "'";
    }
    if (d.retry) {
      EXPECT_GT(d.backoff_seconds, 0.0) << c.name;
      EXPECT_LT(d.backoff_seconds, c.remaining) << c.name;
    } else {
      EXPECT_EQ(d.backoff_seconds, 0.0) << c.name;
    }
  }
}

TEST(RetryTest, DeadlineExhaustionNeverRetriesAtAnyAttempt) {
  const RetryPolicy policy;
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    for (double remaining : {0.0, 1e-12, 1e-6}) {
      Rng rng(7);
      const RetryDecision d = DecideRetry(policy, StatusCode::kUnavailable,
                                          attempt, remaining, &rng);
      EXPECT_FALSE(d.retry) << "attempt " << attempt << " remaining "
                            << remaining;
    }
  }
}

TEST(RetryTest, JitterStaysInsideConfiguredBounds) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1e-3;
  policy.max_backoff_seconds = 1.0;  // out of the way for attempts 1..5
  Rng rng(12345);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double base = policy.initial_backoff_seconds *
                        std::pow(kBackoffMultiplier, attempt - 1);
    double lo_seen = 1e9, hi_seen = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double b = BackoffSeconds(policy, attempt, &rng);
      EXPECT_GE(b, base * (1.0 - kJitterFraction));
      EXPECT_LE(b, base * (1.0 + kJitterFraction));
      lo_seen = std::min(lo_seen, b);
      hi_seen = std::max(hi_seen, b);
    }
    // The jitter actually jitters (not a constant factor).
    EXPECT_GT(hi_seen - lo_seen, base * 0.1) << "attempt " << attempt;
  }
}

TEST(RetryTest, BackoffCapIsHardEvenAfterJitter) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1e-3;
  policy.max_backoff_seconds = 4e-3;
  Rng rng(5);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LE(BackoffSeconds(policy, attempt, &rng),
                policy.max_backoff_seconds);
    }
  }
}

TEST(RetryTest, BackoffStreamDeterministicPerSeed) {
  const RetryPolicy policy;
  Rng a(42), b(42);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(BackoffSeconds(policy, attempt, &a),
              BackoffSeconds(policy, attempt, &b));
  }
}

// ---------------------------------------------------------------------------
// Token bucket and admission control.

TEST(TokenBucketTest, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0.0));
}

TEST(TokenBucketTest, BurstThenRefillAtRate) {
  TokenBucket bucket(1.0, 2.0);  // 1 token/s, burst 2
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.0));   // burst spent
  EXPECT_FALSE(bucket.TryAcquire(0.5));   // only half a token back
  EXPECT_TRUE(bucket.TryAcquire(1.6));    // 1.6 tokens accrued
  EXPECT_FALSE(bucket.TryAcquire(1.6));
}

TEST(TokenBucketTest, RefillCapsAtBurst) {
  TokenBucket bucket(10.0, 3.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  // A long idle stretch must not bank more than the burst.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += bucket.TryAcquire(1000.0) ? 1 : 0;
  EXPECT_EQ(admitted, 3);
}

TEST(TokenBucketTest, RefundReturnsTokenCappedAtBurst) {
  TokenBucket bucket(1.0, 2.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  bucket.Refund();
  EXPECT_TRUE(bucket.TryAcquire(0.0));  // the refunded token is spendable
  EXPECT_FALSE(bucket.TryAcquire(0.0));
  // A spurious extra refund cannot bank tokens past the burst.
  bucket.Refund();
  bucket.Refund();
  bucket.Refund();
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.0));
}

TEST(AdmissionTest, AdmitReleaseTracksInFlight) {
  AdmissionOptions opt;
  opt.max_concurrent = 2;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  EXPECT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());
  EXPECT_EQ(outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(admission.in_flight(), 1);
  admission.Release();
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionTest, DryBucketRejectsWithoutQueueing) {
  AdmissionOptions opt;
  opt.tenant_rate_per_second = 1.0;
  opt.tenant_burst = 1.0;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  EXPECT_TRUE(admission.Admit("a", 0.0, 0.0, &outcome).ok());
  const Status second = admission.Admit("a", 0.0, 0.0, &outcome);
  EXPECT_EQ(second.code(), StatusCode::kRejectedOverload);
  EXPECT_EQ(outcome, AdmissionOutcome::kQuota);
  // Quotas are per tenant: another tenant still has its burst.
  EXPECT_TRUE(admission.Admit("b", 0.0, 0.0, &outcome).ok());
}

TEST(AdmissionTest, FullQueueShedsImmediately) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.queue_limit = 0;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  ASSERT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());
  const Status shed = admission.Admit("t", 0.0, 10.0, &outcome);
  EXPECT_EQ(shed.code(), StatusCode::kRejectedOverload);
  EXPECT_EQ(outcome, AdmissionOutcome::kQueueFull);
  admission.Release();
}

TEST(AdmissionTest, QueuedRequestTimesOutAsDeadline) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.queue_limit = 4;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  ASSERT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());
  const Status timed_out = admission.Admit("t", 0.0, 0.001, &outcome);
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome, AdmissionOutcome::kTimeout);
  admission.Release();
}

TEST(AdmissionTest, ShedAndTimedOutRequestsRefundQuota) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.queue_limit = 0;
  opt.tenant_rate_per_second = 1e-9;  // negligible refill
  opt.tenant_burst = 2.0;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  ASSERT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());  // 1 token left
  // Every shed request refunds its token: the rejection stays kQueueFull
  // forever instead of decaying into kQuota once the burst is burned on
  // requests that received no service.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(admission.Admit("t", 0.0, 0.0, &outcome).ok());
    EXPECT_EQ(outcome, AdmissionOutcome::kQueueFull) << "shed " << i;
  }
  admission.Release();
  ASSERT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());  // 0 tokens left

  // The same holds for requests that queue and then time out.
  AdmissionOptions timed = opt;
  timed.queue_limit = 4;
  AdmissionController timed_admission(timed);
  ASSERT_TRUE(timed_admission.Admit("t", 0.0, 0.0, &outcome).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(timed_admission.Admit("t", 0.0, 0.0, &outcome).ok());
    EXPECT_EQ(outcome, AdmissionOutcome::kTimeout) << "timeout " << i;
  }
  timed_admission.Release();
}

TEST(AdmissionTest, QueuedRequestGetsFreedSlot) {
  AdmissionOptions opt;
  opt.max_concurrent = 1;
  opt.queue_limit = 4;
  AdmissionController admission(opt);
  AdmissionOutcome outcome;
  ASSERT_TRUE(admission.Admit("t", 0.0, 0.0, &outcome).ok());
  Status queued = Status::Ok();
  AdmissionOutcome queued_outcome = AdmissionOutcome::kTimeout;
  std::thread waiter([&]() {
    queued = admission.Admit("t", 0.0, 30.0, &queued_outcome);
  });
  while (admission.waiting() == 0) std::this_thread::yield();
  admission.Release();
  waiter.join();
  EXPECT_TRUE(queued.ok());
  EXPECT_EQ(queued_outcome, AdmissionOutcome::kAdmitted);
  admission.Release();
  EXPECT_EQ(admission.in_flight(), 0);
}

// ---------------------------------------------------------------------------
// Circuit-breaker ladder.

TEST(BreakerTest, StepsDownOneRungPerFailureStreak) {
  BreakerOptions opt;
  opt.open_after = 3;
  CircuitBreakerLadder ladder(opt);
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kFull);
  ladder.RecordFailure("t");
  ladder.RecordFailure("t");
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kFull);  // streak not complete
  EXPECT_EQ(ladder.RecordFailure("t"), ServiceMode::kCapped);
  for (int i = 0; i < 3; ++i) ladder.RecordFailure("t");
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kIndependence);
  // The bottom rung holds.
  for (int i = 0; i < 10; ++i) ladder.RecordFailure("t");
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kIndependence);
  EXPECT_EQ(ladder.step_downs(), 2u);
}

TEST(BreakerTest, SuccessResetsTheFailureStreak) {
  BreakerOptions opt;
  opt.open_after = 2;
  CircuitBreakerLadder ladder(opt);
  ladder.RecordFailure("t");
  ladder.RecordSuccess("t");
  ladder.RecordFailure("t");
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kFull);
  EXPECT_EQ(ladder.step_downs(), 0u);
}

TEST(BreakerTest, RecoversOneRungPerSuccessStreak) {
  BreakerOptions opt;
  opt.open_after = 1;
  opt.close_after = 2;
  CircuitBreakerLadder ladder(opt);
  ladder.RecordFailure("t");
  ladder.RecordFailure("t");
  ASSERT_EQ(ladder.ModeFor("t"), ServiceMode::kIndependence);
  ladder.RecordSuccess("t");
  EXPECT_EQ(ladder.ModeFor("t"), ServiceMode::kIndependence);  // probing
  EXPECT_EQ(ladder.RecordSuccess("t"), ServiceMode::kCapped);
  ladder.RecordSuccess("t");
  EXPECT_EQ(ladder.RecordSuccess("t"), ServiceMode::kFull);
  EXPECT_EQ(ladder.step_ups(), 2u);
  EXPECT_EQ(ladder.step_downs(), 2u);
}

TEST(BreakerTest, TenantsAreIndependent) {
  BreakerOptions opt;
  opt.open_after = 1;
  CircuitBreakerLadder ladder(opt);
  ladder.RecordFailure("noisy");
  EXPECT_EQ(ladder.ModeFor("noisy"), ServiceMode::kCapped);
  EXPECT_EQ(ladder.ModeFor("quiet"), ServiceMode::kFull);
}

TEST(BreakerTest, ModeNamesAreStable) {
  EXPECT_STREQ(ServiceModeName(ServiceMode::kFull), "full");
  EXPECT_STREQ(ServiceModeName(ServiceMode::kCapped), "capped");
  EXPECT_STREQ(ServiceModeName(ServiceMode::kIndependence), "independence");
}

// ---------------------------------------------------------------------------
// GsStats aggregation.

GsStats MakeStats(uint64_t subproblems, uint64_t atomics, bool exhausted) {
  GsStats s;
  s.subproblems = subproblems;
  s.memo_hits = subproblems * 2;
  s.atomic_considered = atomics;
  s.analysis_seconds = 0.25 * static_cast<double>(subproblems);
  s.budget_exhausted = exhausted;
  return s;
}

TEST(GsStatsMergeTest, AddAccumulatesAndOrs) {
  GsStats total = MakeStats(3, 10, false);
  AddGsStats(MakeStats(5, 2, true), &total);
  EXPECT_EQ(total.subproblems, 8u);
  EXPECT_EQ(total.memo_hits, 16u);
  EXPECT_EQ(total.atomic_considered, 12u);
  EXPECT_DOUBLE_EQ(total.analysis_seconds, 2.0);
  EXPECT_TRUE(total.budget_exhausted);
}

TEST(GsStatsMergeTest, LedgerSumsEveryAttempt) {
  GsStatsLedger ledger;
  ledger.Add(MakeStats(4, 8, false));
  ledger.Add(MakeStats(2, 3, true));
  const GsStats total = ledger.total();
  EXPECT_EQ(total.subproblems, 6u);
  EXPECT_EQ(total.atomic_considered, 11u);
  EXPECT_TRUE(total.budget_exhausted);
}

// ---------------------------------------------------------------------------
// Latency histogram.

TEST(LatencyRecorderTest, EmptyReadsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.QuantileSeconds(0.5), 0.0);
}

TEST(LatencyRecorderTest, QuantilesLandInTheRightBucket) {
  LatencyRecorder rec;
  for (int i = 0; i < 99; ++i) rec.Record(1e-3);
  rec.Record(0.1);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_NEAR(rec.total_seconds(), 0.199, 1e-9);
  // 1ms lives in bucket [512us, 1024us) -> upper edge 1.024ms.
  EXPECT_DOUBLE_EQ(rec.QuantileSeconds(0.5), 1024e-6);
  // 99% of the samples are 1ms: the p99 (rank 99 of 100) is one of them.
  EXPECT_DOUBLE_EQ(rec.QuantileSeconds(0.99), 1024e-6);
  // The 100ms outlier is the maximum: bucket upper edge 2^17 us.
  EXPECT_DOUBLE_EQ(rec.QuantileSeconds(1.0), std::ldexp(1.0, 17) * 1e-6);
}

TEST(LatencyRecorderTest, NearestRankOnExactMultiples) {
  LatencyRecorder rec;
  rec.Record(3e-6);    // bucket [2us, 4us)
  rec.Record(300e-6);  // bucket [256us, 512us)
  // Nearest rank: the p50 of two samples is the first, ceil(0.5 * 2) = 1.
  EXPECT_DOUBLE_EQ(rec.QuantileSeconds(0.5), 4e-6);
  EXPECT_DOUBLE_EQ(rec.QuantileSeconds(1.0), 512e-6);
}

// ---------------------------------------------------------------------------
// Snapshot epochs.

TEST(SnapshotTest, AcquireBeforeFirstPublishIsNull) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.Acquire(), nullptr);
  EXPECT_EQ(publisher.current_epoch(), 0u);
}

TEST(SnapshotTest, HandlesPinEpochsAndRetireByRefcount) {
  const Catalog catalog = test::MakeTinyCatalog();
  SnapshotPublisher publisher;
  const StatusOr<uint64_t> first = publisher.Publish(catalog, std::make_shared<const SitPool>());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  std::shared_ptr<const Snapshot> pinned = publisher.Acquire();
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(pinned->Coherent());

  const StatusOr<uint64_t> second = publisher.Publish(catalog, std::make_shared<const SitPool>());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
  // The in-flight handle still reads epoch 1; new acquires see epoch 2.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(publisher.Acquire()->epoch(), 2u);
  EXPECT_EQ(publisher.live_epochs(), 2u);
  pinned.reset();  // the last holder retires epoch 1
  EXPECT_EQ(publisher.live_epochs(), 1u);
  EXPECT_EQ(publisher.published(), 2u);
}

TEST(SnapshotTest, FailedSwapKeepsThePreviousEpoch) {
  const Catalog catalog = test::MakeTinyCatalog();
  SnapshotPublisher publisher;
  ASSERT_TRUE(publisher.Publish(catalog, std::make_shared<const SitPool>()).ok());
  {
    const ScopedFault fault(Fault::kFailSnapshotSwap);
    const StatusOr<uint64_t> swap = publisher.Publish(catalog, std::make_shared<const SitPool>());
    EXPECT_FALSE(swap.ok());
    EXPECT_EQ(swap.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(publisher.current_epoch(), 1u);
  EXPECT_EQ(publisher.failed_swaps(), 1u);
  EXPECT_EQ(publisher.published(), 1u);
  // Recovery: the next refresh publishes normally.
  ASSERT_TRUE(publisher.Publish(catalog, std::make_shared<const SitPool>()).ok());
  EXPECT_EQ(publisher.current_epoch(), 2u);
}

// A published pool is shared with the snapshot, not copied.
TEST(SnapshotTest, PublishSharesThePool) {
  const Catalog catalog = test::MakeTinyCatalog();
  SnapshotPublisher publisher;
  const auto pool = std::make_shared<const SitPool>();
  ASSERT_TRUE(publisher.Publish(catalog, pool).ok());
  EXPECT_EQ(&publisher.Acquire()->pool(), pool.get());
}

// ---------------------------------------------------------------------------
// EstimationService end to end.

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy()),
                Predicate::Join(Sb(), Tz())}),
        pool_(GenerateSitPool({query_}, 2, builder_)) {}

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
};

TEST_F(ServiceTest, SubmitBeforeAnyRefreshFailsPrecondition) {
  EstimationService service;
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(ServiceTest, SubmitMatchesDirectEstimatorBitForBit) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  Estimator direct(&catalog_, &pool_, Ranking::kDiff);
  const StatusOr<double> sel = direct.TryEstimateSelectivity(query_);
  const StatusOr<double> card = direct.TryEstimateCardinality(query_);
  ASSERT_TRUE(sel.ok() && card.ok());
  EXPECT_EQ(r.value().selectivity, sel.value());  // bit-identical
  EXPECT_EQ(r.value().cardinality, card.value());
  EXPECT_EQ(r.value().epoch, 1u);
  EXPECT_EQ(r.value().mode, ServiceMode::kFull);
  EXPECT_EQ(r.value().attempts, 1);
  EXPECT_FALSE(r.value().degraded);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.mode_submissions[0], 1u);
  EXPECT_EQ(stats.latency_count, 1u);
  EXPECT_GT(stats.search.subproblems, 0u);
}

// One Submit runs one search: the service's books equal a direct
// Estimator's after one estimate. A second pass over the same estimator
// (to derive the cardinality) would add a memo hit.
TEST_F(ServiceTest, SubmitSearchesOnce) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  ASSERT_TRUE(service.Submit("t", query_).ok());

  Estimator direct(&catalog_, &pool_, Ranking::kDiff);
  ASSERT_TRUE(direct.TryEstimateSelectivity(query_).ok());
  const GsStats* expected = direct.StatsFor(query_);
  ASSERT_NE(expected, nullptr);

  const GsStats search = service.Stats().search;
  EXPECT_EQ(search.memo_hits, expected->memo_hits);
  EXPECT_EQ(search.subproblems, expected->subproblems);
  EXPECT_EQ(search.atomic_considered, expected->atomic_considered);
}

// Every attempt runs on a fresh estimator, so N identical Submits book
// exactly N times one fresh estimator's search.
TEST_F(ServiceTest, SequentialSubmitsBookExactTotals) {
  constexpr uint64_t kSubmits = 5;
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  for (uint64_t i = 0; i < kSubmits; ++i) {
    ASSERT_TRUE(service.Submit("t", query_).ok());
  }

  Estimator fresh(&catalog_, &pool_, Ranking::kDiff);
  ASSERT_TRUE(fresh.TryEstimateSelectivity(query_).ok());
  const GsStats* one = fresh.StatsFor(query_);
  ASSERT_NE(one, nullptr);
  ASSERT_GT(one->subproblems, 0u);

  const GsStats search = service.Stats().search;
  EXPECT_EQ(search.subproblems, kSubmits * one->subproblems);
  EXPECT_EQ(search.memo_hits, kSubmits * one->memo_hits);
  EXPECT_EQ(search.atomic_considered, kSubmits * one->atomic_considered);
}

TEST_F(ServiceTest, TransientFaultRetriesThenReportsUnavailable) {
  ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-5;  // fast test
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  {
    const ScopedFault fault(Fault::kThrowAtomicLookup);
    const StatusOr<ServiceEstimate> r = service.Submit("t", query_);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.transient_faults, 3u);  // every attempt failed retryably
  EXPECT_EQ(stats.retries, 2u);           // max_attempts - 1
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(ServiceTest, ExpiredDeadlineRefusesToAttempt) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  SubmitOptions submit;
  submit.deadline_seconds = 1e-12;  // spent before admission completes
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_, submit);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.no_retry_deadline, 1u);
  // No attempt ran: an expired caller must never get an unclocked search
  // (deadline_seconds == 0 would mean "no deadline" to the budget).
  EXPECT_EQ(stats.search.subproblems, 0u);
  EXPECT_EQ(stats.search.atomic_considered, 0u);
}

TEST_F(ServiceTest, DeadlineBeyondTheClockRangeIsNoDeadline) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  SubmitOptions submit;
  submit.deadline_seconds = 1e10;  // past steady_clock's range
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_, submit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().degraded);
  EXPECT_EQ(r.value().attempts, 1);
  Estimator direct(&catalog_, &pool_, Ranking::kDiff);
  const StatusOr<double> sel = direct.TryEstimateSelectivity(query_);
  const StatusOr<double> card = direct.TryEstimateCardinality(query_);
  ASSERT_TRUE(sel.ok() && card.ok());
  EXPECT_EQ(r.value().selectivity, sel.value());  // bit-identical
  EXPECT_EQ(r.value().cardinality, card.value());
}

// A retry whose backoff would outlive the caller's deadline is not
// attempted, and is counted as a deadline refusal.
TEST_F(ServiceTest, BackoffPastTheDeadlineIsNotRetried) {
  ServiceOptions options;
  // Jitter scales the first backoff into [8, 12] s, capped at 10 s: past
  // the 1 s deadline either way.
  options.retry.initial_backoff_seconds = 10.0;
  options.retry.max_backoff_seconds = 10.0;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  SubmitOptions submit;
  submit.deadline_seconds = 1.0;
  {
    const ScopedFault fault(Fault::kThrowAtomicLookup);
    const StatusOr<ServiceEstimate> r = service.Submit("t", query_, submit);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.no_retry_deadline, 1u);
}

TEST(ServiceExceptionTest, OnlyTransientFaultIsRetryable) {
  const Status transient = ClassifyAttemptException(
      "estimation attempt", TransientFault("injected: lookup failed"));
  EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(RetryableStatusCode(transient.code()));
  // Anything else escaping the library is a deterministic bug: terminal
  // INTERNAL, never retried as if it could pass on the next try.
  const Status bug = ClassifyAttemptException(
      "estimation attempt", std::logic_error("broken invariant"));
  EXPECT_EQ(bug.code(), StatusCode::kInternal);
  EXPECT_FALSE(RetryableStatusCode(bug.code()));
}

TEST_F(ServiceTest, BreakerStepsDownThenRecovers) {
  ServiceOptions options;
  options.retry.max_attempts = 1;  // one failed Submit == one breaker strike
  options.breaker.open_after = 1;
  options.breaker.close_after = 2;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  {
    const ScopedFault fault(Fault::kThrowAtomicLookup);
    StatusIgnored(service.Submit("t", query_));  // strike 1: -> kCapped
  }
  StatusOr<ServiceEstimate> capped = service.Submit("t", query_);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().mode, ServiceMode::kCapped);
  // Two successes at the degraded rung close the breaker again.
  ASSERT_TRUE(service.Submit("t", query_).ok());
  const StatusOr<ServiceEstimate> full = service.Submit("t", query_);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().mode, ServiceMode::kFull);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.step_downs, 1u);
  EXPECT_EQ(stats.step_ups, 1u);
  EXPECT_EQ(stats.mode_submissions[0], 2u);  // the failed one + the last
  EXPECT_EQ(stats.mode_submissions[1], 2u);
}

TEST_F(ServiceTest, IndependenceRungAlwaysAnswers) {
  ServiceOptions options;
  options.retry.max_attempts = 1;
  options.breaker.open_after = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  {
    const ScopedFault fault(Fault::kThrowAtomicLookup);
    StatusIgnored(service.Submit("t", query_));  // -> kCapped
    StatusIgnored(service.Submit("t", query_));  // -> kIndependence
  }
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().mode, ServiceMode::kIndependence);
  EXPECT_TRUE(r.value().degraded);  // the bottom rung is the fallback
  EXPECT_GT(r.value().selectivity, 0.0);
  EXPECT_LE(r.value().selectivity, 1.0);
}

// The kCapped rung must actually cap the search: on a query whose full
// search books more memo entries than the cap, the capped attempt stops at
// the cap and reports the estimate degraded.
TEST_F(ServiceTest, CappedRungSpendsAtMostTheCappedBudget) {
  constexpr uint64_t kCappedSubproblems = 64;
  SnowflakeOptions sopt;
  sopt.scale = 0.01;
  const Catalog catalog = BuildSnowflake(sopt);
  CardinalityCache cache;
  Evaluator eval(&catalog, &cache);
  WorkloadOptions wopt;
  wopt.num_queries = 1;
  wopt.num_joins = 5;
  wopt.num_filters = 4;
  wopt.seed = 7;
  const std::vector<Query> wide = GenerateWorkload(catalog, &eval, wopt);
  ASSERT_EQ(wide.size(), 1u);
  const SitBuilder builder(&eval, SitBuildOptions{});
  const SitPool pool = GenerateSitPool(wide, 2, builder);

  ServiceOptions options;
  options.retry.max_attempts = 1;  // one failed Submit == one breaker strike
  options.breaker.open_after = 1;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog, pool).ok());

  const StatusOr<ServiceEstimate> full = service.Submit("t", wide[0]);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full.value().mode, ServiceMode::kFull);
  const uint64_t full_subproblems = service.Stats().search.subproblems;
  ASSERT_GT(full_subproblems, kCappedSubproblems);

  {
    const ScopedFault fault(Fault::kThrowAtomicLookup);
    StatusIgnored(service.Submit("t", wide[0]));  // strike 1: -> kCapped
  }
  const uint64_t before = service.Stats().search.subproblems;
  const StatusOr<ServiceEstimate> capped = service.Submit("t", wide[0]);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped.value().mode, ServiceMode::kCapped);
  EXPECT_TRUE(capped.value().degraded);
  EXPECT_LE(service.Stats().search.subproblems - before, kCappedSubproblems);
}

TEST_F(ServiceTest, TenantQuotaRejectionIsCounted) {
  ServiceOptions options;
  options.admission.tenant_rate_per_second = 1e-9;  // one-shot burst of 1
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  ASSERT_TRUE(service.Submit("t", query_).ok());
  const StatusOr<ServiceEstimate> shed = service.Submit("t", query_);
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kRejectedOverload);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
}

TEST_F(ServiceTest, DeadlineDegradedFullEstimateRetriesThenReturnsFloor) {
  ServiceOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-5;
  EstimationService service(options);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  const ScopedFault fault(Fault::kExpireDeadline);  // every attempt degrades
  SubmitOptions submit;
  submit.deadline_seconds = 30.0;  // plenty of caller budget for retries
  const StatusOr<ServiceEstimate> r = service.Submit("t", query_, submit);
  // Retries probed for a clean estimate, then the degraded floor shipped.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded);
  EXPECT_EQ(r.value().attempts, 3);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServiceTest, RefreshRotatesEpochsUnderSubmits) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  const StatusOr<ServiceEstimate> before = service.Submit("t", query_);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().epoch, 1u);
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  const StatusOr<ServiceEstimate> after = service.Submit("t", query_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epoch, 2u);
  // Identical statistics under a new epoch: identical bits.
  EXPECT_EQ(before.value().selectivity, after.value().selectivity);
  EXPECT_EQ(service.Stats().epochs_published, 2u);
}

TEST_F(ServiceTest, MalformedQueryIsTerminal) {
  EstimationService service;
  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  // A filter on a column outside the catalog.
  const Query bad({Predicate::Filter({7, 3}, 1, 5)});
  const StatusOr<ServiceEstimate> r = service.Submit("t", bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.retries, 0u);  // deterministic failures never retry
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(ServiceTest, PrewarmWarmsCachesAndSwallowsFailures) {
  EstimationService service;
  // Before any Refresh there is no epoch to warm against: every submit
  // fails precondition and Prewarm reports zero warmed.
  EXPECT_EQ(service.Prewarm("t", {query_}), 0u);

  ASSERT_TRUE(service.Refresh(catalog_, pool_).ok());
  const Query bad({Predicate::Filter({7, 3}, 1, 5)});
  // One warmable query, one malformed: the failure is swallowed, not
  // propagated, and the good query still warms.
  EXPECT_EQ(service.Prewarm("t", {query_, bad}), 1u);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);  // 1 pre-refresh + 2 post-refresh
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 2u);

  // The warmed epoch serves real submits afterwards.
  EXPECT_TRUE(service.Submit("t", query_).ok());
}

// ---------------------------------------------------------------------------
// Delta maintenance through the service: ApplyDelta as a delta-refreshed
// snapshot epoch.

class ServiceDeltaTest : public ::testing::Test {
 protected:
  // F(a, d_id) in three sealed 20-row parts joined to a 10-row D(pk, c);
  // same data shape as part_stats_test so the maintainer exercises real
  // multi-part merges.
  ServiceDeltaTest()
      : query_({Predicate::Join({0, 1}, {1, 0}),
                Predicate::Filter({0, 0}, 10, 60)}),
        maintainer_(MakeCatalog(&catalog_),
                    {query_}, 1, {HistogramType::kMaxDiff, 64}) {}

  static Catalog* MakeCatalog(Catalog* catalog) {
    Table fact = test::MakeTable("F", {"a", "d_id"}, {});
    int row = 0;
    for (int p = 0; p < 3; ++p) {
      for (int r = 0; r < 20; ++r, ++row) {
        fact.AppendRow({(row * 7) % 100, row % 10});
      }
      fact.SealTail();
    }
    catalog->AddTable(std::move(fact));
    std::vector<std::vector<int64_t>> dim_rows;
    for (int64_t i = 0; i < 10; ++i) dim_rows.push_back({i, i * 3});
    Table dim = test::MakeTable("D", {"pk", "c"}, dim_rows, {true, false});
    dim.SealTail();
    catalog->AddTable(std::move(dim));
    return catalog;
  }

  Catalog catalog_;
  Query query_;
  PartStatsMaintainer maintainer_;
};

TEST_F(ServiceDeltaTest, EnableThenApplyDeltaPublishEpochs) {
  EstimationService service;
  const StatusOr<uint64_t> enabled =
      service.EnableDeltaMaintenance(&maintainer_);
  ASSERT_TRUE(enabled.ok()) << enabled.status().ToString();
  EXPECT_EQ(enabled.value(), 1u);
  EXPECT_EQ(service.current_epoch(), 1u);

  // The enable epoch serves estimates built from the merged pool.
  const StatusOr<ServiceEstimate> before = service.Submit("t", query_);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().epoch, 1u);

  DeltaBatch batch;
  batch.table = 0;
  batch.insert_rows.assign(40, {0, 0});  // outside the filter range
  const StatusOr<DeltaReport> report = service.ApplyDelta(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().rebuilt_parts.size(), 1u);
  EXPECT_EQ(service.current_epoch(), 2u);

  // New submits see the refreshed statistics: the inserted rows dilute
  // the filter, so the estimate must move.
  const StatusOr<ServiceEstimate> after = service.Submit("t", query_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().epoch, 2u);
  EXPECT_NE(after.value().selectivity, before.value().selectivity);

  // And it matches a direct estimator over the maintainer's merged pool
  // bit for bit.
  SitPool pool = *maintainer_.MergedPool().value();
  Estimator direct(&maintainer_.catalog(), &pool, Ranking::kDiff);
  const StatusOr<double> sel = direct.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(after.value().selectivity, sel.value());
}

TEST_F(ServiceDeltaTest, ApplyDeltaRequiresEnable) {
  EstimationService service;
  DeltaBatch batch;
  batch.table = 0;
  batch.insert_rows = {{1, 1}};
  const StatusOr<DeltaReport> r = service.ApplyDelta(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.current_epoch(), 0u);

  EXPECT_EQ(service.EnableDeltaMaintenance(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServiceDeltaTest, CorruptStatsAreNeverPublished) {
  EstimationService service;
  ASSERT_TRUE(service.EnableDeltaMaintenance(&maintainer_).ok());
  ASSERT_EQ(service.current_epoch(), 1u);

  DeltaBatch batch;
  batch.table = 0;
  batch.insert_rows = {{5, 5}};
  {
    const ScopedFault fault(Fault::kCorruptPartStats);
    const StatusOr<DeltaReport> r = service.ApplyDelta(batch);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  }
  // The poisoned pool never became an epoch; the enable epoch still
  // serves.
  EXPECT_EQ(service.current_epoch(), 1u);
  EXPECT_TRUE(service.Submit("t", query_).ok());

  // With the fault cleared the same batch has already been applied to
  // the catalog (merge validation failed *after* the data change), so a
  // follow-up empty-ish delta republished cleanly.
  DeltaBatch retry;
  retry.table = 0;
  retry.insert_rows = {{6, 6}};
  const StatusOr<DeltaReport> r = service.ApplyDelta(retry);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(service.current_epoch(), 2u);
}

}  // namespace
}  // namespace condsel
