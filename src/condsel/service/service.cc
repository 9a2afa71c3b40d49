#include "condsel/service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "condsel/baselines/feedback.h"
#include "condsel/common/fault_injector.h"
#include "condsel/common/numeric.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/harness/metrics.h"
#include "condsel/sit/sit_matcher.h"

namespace condsel {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Releases an admission slot on every exit path of Submit.
class SlotReleaser {
 public:
  explicit SlotReleaser(AdmissionController* admission)
      : admission_(admission) {}
  ~SlotReleaser() { admission_->Release(); }
  SlotReleaser(const SlotReleaser&) = delete;
  SlotReleaser& operator=(const SlotReleaser&) = delete;

 private:
  AdmissionController* admission_;
};

}  // namespace

Status ClassifyAttemptException(const char* op, const std::exception& e) {
  if (dynamic_cast<const TransientFault*>(&e) != nullptr) {
    return Status::Unavailable(std::string(op) +
                               " failed transiently: " + e.what());
  }
  return Status::Internal(std::string(op) +
                          " threw an unexpected exception: " + e.what());
}

// Per-epoch feedback machinery. The snapshot handle pins the epoch the
// matcher and evaluator borrow from, so a Refresh can never free the
// statistics mid-observation; the whole bundle is rebuilt (empty) when an
// observation arrives for a newer epoch.
struct EstimationService::FeedbackState {
  explicit FeedbackState(std::shared_ptr<const Snapshot> s)
      : snap(std::move(s)),
        matcher(&snap->pool()),
        estimator(&matcher),
        evaluator(&snap->catalog(), &cache) {}

  std::shared_ptr<const Snapshot> snap;
  SitMatcher matcher;
  FeedbackEstimator estimator;
  CardinalityCache cache;
  Evaluator evaluator;
};

EstimationService::EstimationService(ServiceOptions options)
    : options_(std::move(options)),
      admission_(options_.admission),
      breaker_(options_.breaker),
      jitter_rng_(options_.jitter_seed) {}

EstimationService::~EstimationService() = default;

StatusOr<uint64_t> EstimationService::Refresh(Catalog catalog, SitPool pool) {
  return publisher_.Publish(std::move(catalog), std::move(pool));
}

StatusOr<uint64_t> EstimationService::EnableDeltaMaintenance(
    PartStatsMaintainer* maintainer) {
  if (maintainer == nullptr) {
    return StatusOr<uint64_t>(
        Status::InvalidArgument("maintainer must not be null"));
  }
  const std::lock_guard<OrderedMutex> lock(maintenance_mu_);
  maintainer_ = maintainer;
  if (maintainer_->stats_generation() == 0) {
    Status built = maintainer_->BuildAll();
    if (!built.ok()) return StatusOr<uint64_t>(built);
  }
  StatusOr<std::shared_ptr<const SitPool>> pool = maintainer_->MergedPool();
  if (!pool.ok()) return StatusOr<uint64_t>(pool.status());
  // The snapshot gets its own catalog: Table copies share the immutable
  // part data through their handles, so unchanged parts are never
  // duplicated across epochs.
  Catalog catalog = maintainer_->catalog();
  SitPool pool_copy = *pool.value();
  // The build and publish above block only other maintenance passes and
  // refreshes; epoch_mu_ is taken only inside Publish's non-blocking
  // scoped blocks, keeping the acquire path wait-free, hence:
  // condsel-model: allow(blocking-reachable)
  return publisher_.Publish(std::move(catalog), std::move(pool_copy));
}

StatusOr<DeltaReport> EstimationService::ApplyDelta(const DeltaBatch& batch) {
  const std::lock_guard<OrderedMutex> lock(maintenance_mu_);
  if (maintainer_ == nullptr) {
    return StatusOr<DeltaReport>(Status::FailedPrecondition(
        "delta maintenance is not enabled (call EnableDeltaMaintenance)"));
  }
  StatusOr<DeltaReport> report = maintainer_->ApplyDelta(batch);
  if (!report.ok()) return report;
  StatusOr<std::shared_ptr<const SitPool>> pool = maintainer_->MergedPool();
  if (!pool.ok()) {
    // The rebuilt entries failed validation (e.g. kCorruptPartStats):
    // surface the error with the previous epoch still current rather
    // than publish a poisoned pool.
    return StatusOr<DeltaReport>(pool.status());
  }
  Catalog catalog = maintainer_->catalog();
  SitPool pool_copy = *pool.value();
  // Blocking here delays only other maintenance passes and refreshes;
  // the acquire path stays wait-free (see EnableDeltaMaintenance), hence:
  // condsel-model: allow(blocking-reachable)
  StatusOr<uint64_t> epoch =
      publisher_.Publish(std::move(catalog), std::move(pool_copy));
  if (!epoch.ok()) return StatusOr<DeltaReport>(epoch.status());
  return report;
}

EstimationBudget EstimationService::BudgetForMode(
    ServiceMode mode, double remaining_seconds) const {
  EstimationBudget budget;
  switch (mode) {
    case ServiceMode::kFull:
      budget = options_.full_budget;
      break;
    case ServiceMode::kCapped:
      budget = options_.capped_budget;
      break;
    case ServiceMode::kIndependence:
      // One memo entry exhausts the budget before any decomposition is
      // scored, so every subproblem takes the independence fallback: the
      // always-cheap bottom rung needs no clock at all.
      budget.max_subproblems = 1;
      budget.max_atomic_decompositions = 1;
      return budget;
  }
  if (remaining_seconds != kNoDeadline) {
    // Never clamp to 0: EstimationBudget reads deadline_seconds <= 0 as
    // "no deadline" (Deadline::Arm disarms), which would hand an
    // already-expired caller an unbounded attempt. Submit refuses to
    // attempt once the caller's deadline is spent; the epsilon keeps the
    // clock armed if the remainder goes non-positive between that check
    // and the attempt (backoff sleeps and queue waits can overshoot).
    constexpr double kMinArmedDeadlineSeconds = 1e-9;
    const double capped =
        std::max(remaining_seconds, kMinArmedDeadlineSeconds);
    budget.deadline_seconds = budget.deadline_seconds > 0.0
                                  ? std::min(budget.deadline_seconds, capped)
                                  : capped;
  }
  return budget;
}

StatusOr<ServiceEstimate> EstimationService::Attempt(
    const Query& query, const Snapshot& snap, ServiceMode mode,
    double remaining_seconds) {
  if (!snap.Coherent()) {
    counters_.incoherent_snapshots.fetch_add(1, std::memory_order_relaxed);
    return StatusOr<ServiceEstimate>(
        Status::Internal("torn snapshot observed (epoch " +
                         std::to_string(snap.epoch()) + ")"));
  }
  const EstimationBudget budget = BudgetForMode(mode, remaining_seconds);
  Estimator estimator(&snap.catalog(), &snap.pool(), options_.ranking,
                      budget, &shape_cache_);
  double selectivity = 0.0;
  try {
    StatusOr<double> sel = estimator.TryEstimateSelectivity(query);
    if (!sel.ok()) return StatusOr<ServiceEstimate>(sel.status());
    selectivity = sel.value();
  } catch (const std::exception& e) {
    // The attempt's session unwound before it produced an estimate;
    // nothing reached the ledger, so a retry starts clean. Only the known
    // TransientFault is retryable — anything else maps to terminal
    // INTERNAL (a deterministic bug would fail every retry identically).
    return StatusOr<ServiceEstimate>(
        ClassifyAttemptException("estimation attempt", e));
  }

  ServiceEstimate out;
  out.selectivity = selectivity;
  // Same expression as Estimator::TryEstimateCardinality, so Submit stays
  // bit-identical to a direct Estimator without a second search pass.
  out.cardinality = SanitizeCardinality(
      selectivity *
      CrossProductCardinality(snap.catalog(), query, query.all_predicates()));
  out.epoch = snap.epoch();
  out.mode = mode;
  if (const GsStats* stats = estimator.StatsFor(query)) {
    ledger_.Add(*stats);
    out.degraded =
        stats->budget_exhausted || stats->degraded_subproblems > 0;
  }
  return StatusOr<ServiceEstimate>(out);
}

StatusOr<ServiceEstimate> EstimationService::Submit(const std::string& tenant,
                                                    const Query& query,
                                                    SubmitOptions options) {
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  const double start = NowSeconds();
  const double deadline_seconds = options.deadline_seconds > 0.0
                                      ? options.deadline_seconds
                                      : options_.default_deadline_seconds;
  const double deadline_at =
      deadline_seconds > 0.0 ? start + deadline_seconds : kNoDeadline;
  const auto remaining = [&]() {
    return deadline_at == kNoDeadline ? kNoDeadline
                                      : deadline_at - NowSeconds();
  };
  const auto fail = [&](Status status) {
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
    counters_.latency.Record(NowSeconds() - start);
    return StatusOr<ServiceEstimate>(std::move(status));
  };

  std::shared_ptr<const Snapshot> snap = publisher_.Acquire();
  if (snap == nullptr) {
    return fail(Status::FailedPrecondition(
        "no statistics epoch has been published yet"));
  }

  const double max_wait =
      deadline_at == kNoDeadline
          ? options_.max_queue_wait_seconds
          : std::min(options_.max_queue_wait_seconds,
                     std::max(remaining(), 0.0));
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  Status admitted = admission_.Admit(tenant, start, max_wait, &outcome);
  if (!admitted.ok()) {
    switch (outcome) {
      case AdmissionOutcome::kQuota:
        counters_.rejected_quota.fetch_add(1, std::memory_order_relaxed);
        break;
      case AdmissionOutcome::kQueueFull:
        counters_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
        break;
      case AdmissionOutcome::kTimeout:
        counters_.queue_timeouts.fetch_add(1, std::memory_order_relaxed);
        break;
      case AdmissionOutcome::kAdmitted:
        break;
    }
    return fail(std::move(admitted));
  }
  const SlotReleaser releaser(&admission_);

  const ServiceMode mode = breaker_.ModeFor(tenant);
  counters_.mode_submissions[static_cast<int>(mode)].fetch_add(
      1, std::memory_order_relaxed);

  // kFull with no count caps can only "fail" by deadline degradation; a
  // degraded answer is kept as the graceful floor while retries probe for
  // a clean one.
  const bool classify_degraded =
      options_.retry_degraded_full_estimates && mode == ServiceMode::kFull &&
      options_.full_budget.max_subproblems == 0 &&
      options_.full_budget.max_atomic_decompositions == 0 &&
      deadline_at != kNoDeadline;
  bool have_floor = false;
  ServiceEstimate floor;

  int attempt = 0;
  Status last_failure = Status::Ok();
  for (;;) {
    if (deadline_at != kNoDeadline && remaining() <= 0.0) {
      // The caller's deadline expired before this attempt could start —
      // routine under overload, where the admission wait is capped at
      // exactly the remaining deadline and backoff sleeps can overshoot
      // it. Attempting anyway would run on the caller's clock with no
      // clock at all (BudgetForMode documents why), so refuse instead;
      // a degraded floor already in hand still ships below.
      counters_.no_retry_deadline.fetch_add(1, std::memory_order_relaxed);
      last_failure = Status::DeadlineExceeded(
          "caller deadline expired before an estimation attempt could "
          "start");
      break;
    }
    ++attempt;
    StatusOr<ServiceEstimate> result =
        Attempt(query, *snap, mode, remaining());
    Status attempt_status =
        result.ok() ? Status::Ok() : result.status();
    if (result.ok() && classify_degraded && result.value().degraded) {
      floor = result.value();
      have_floor = true;
      attempt_status = Status::DeadlineExceeded(
          "attempt clock expired; estimate degraded to independence");
    }
    if (attempt_status.ok()) {
      breaker_.RecordSuccess(tenant);
      ServiceEstimate ok = result.value();
      ok.attempts = attempt;
      ok.latency_seconds = NowSeconds() - start;
      counters_.completed.fetch_add(1, std::memory_order_relaxed);
      counters_.latency.Record(ok.latency_seconds);
      return StatusOr<ServiceEstimate>(ok);
    }

    breaker_.RecordFailure(tenant);
    if (RetryableStatusCode(attempt_status.code())) {
      counters_.transient_faults.fetch_add(1, std::memory_order_relaxed);
    }
    last_failure = attempt_status;
    RetryDecision decision;
    {
      const std::lock_guard<OrderedMutex> lock(jitter_mu_);
      decision = DecideRetry(options_.retry, attempt_status.code(), attempt,
                             /*idempotent=*/true, remaining(), &jitter_rng_);
    }
    if (!decision.retry) {
      if (decision.reason == std::string("caller deadline exhausted")) {
        counters_.no_retry_deadline.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    counters_.retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(decision.backoff_seconds));
    // Retries may land on a newer epoch — the transient fault could be
    // the old epoch's swap window itself.
    if (std::shared_ptr<const Snapshot> fresh = publisher_.Acquire()) {
      snap = std::move(fresh);
    }
  }

  if (have_floor) {
    // Retries ran out but a degraded estimate is in hand: graceful
    // degradation beats an error the caller cannot act on.
    floor.attempts = attempt;
    floor.latency_seconds = NowSeconds() - start;
    counters_.completed.fetch_add(1, std::memory_order_relaxed);
    counters_.latency.Record(floor.latency_seconds);
    return StatusOr<ServiceEstimate>(floor);
  }
  return fail(std::move(last_failure));
}

size_t EstimationService::Prewarm(const std::string& tenant,
                                  const std::vector<Query>& queries,
                                  SubmitOptions options) {
  size_t warmed = 0;
  for (const Query& query : queries) {
    StatusOr<ServiceEstimate> result = Submit(tenant, query, options);
    if (result.ok()) {
      ++warmed;
      continue;
    }
    // Warming is advisory: an admission rejection or a mid-warm epoch
    // swap only means the cache stays cold for that query. The sink is
    // the sanctioned discard — condsel_flow's status-flow check accepts
    // it, a silent drop here it would flag.
    StatusIgnored(std::move(result));
  }
  return warmed;
}

Status EstimationService::ObserveFeedback(const std::string& tenant,
                                          const Query& query) {
  (void)tenant;  // feedback adjustments are shared statistics, not quota'd
  std::shared_ptr<const Snapshot> snap = publisher_.Acquire();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no statistics epoch has been published yet");
  }
  const std::lock_guard<OrderedMutex> lock(feedback_mu_);
  if (feedback_ == nullptr || feedback_->snap->epoch() != snap->epoch()) {
    feedback_ = std::make_unique<FeedbackState>(snap);
  }
  Status status = Status::Ok();
  try {
    feedback_->estimator.Observe(query, &feedback_->evaluator);
  } catch (const std::exception& e) {
    // The adjustment accumulator may have absorbed part of the
    // observation before the throw — replaying would double-observe, so
    // this path never retries (DecideRetry documents the decision and the
    // counter makes it visible).
    status = ClassifyAttemptException("feedback observation", e);
  }
  if (status.ok()) {
    counters_.feedback_updates.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  counters_.feedback_failures.fetch_add(1, std::memory_order_relaxed);
  RetryDecision decision;
  {
    const std::lock_guard<OrderedMutex> jitter_lock(jitter_mu_);
    decision = DecideRetry(options_.retry, status.code(), /*attempt=*/1,
                           /*idempotent=*/false, kNoDeadline, &jitter_rng_);
  }
  if (!decision.retry) {
    counters_.no_retry_non_idempotent.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

double EstimationService::FeedbackAdjustmentFor(ColumnRef col) const {
  const std::shared_ptr<const Snapshot> snap = publisher_.Acquire();
  const std::lock_guard<OrderedMutex> lock(feedback_mu_);
  // Adjustments are per-epoch: a state built for a retired epoch reads as
  // untrained (the next observation rebuilds it on the current epoch).
  if (feedback_ == nullptr || snap == nullptr ||
      feedback_->snap->epoch() != snap->epoch()) {
    return 1.0;
  }
  return feedback_->estimator.AdjustmentFor(col);
}

ServiceStatsSnapshot EstimationService::Stats() const {
  ServiceStatsSnapshot snap;
  snap.submitted = counters_.submitted.load(std::memory_order_relaxed);
  snap.completed = counters_.completed.load(std::memory_order_relaxed);
  snap.failed = counters_.failed.load(std::memory_order_relaxed);
  snap.rejected_quota =
      counters_.rejected_quota.load(std::memory_order_relaxed);
  snap.rejected_queue_full =
      counters_.rejected_queue_full.load(std::memory_order_relaxed);
  snap.queue_timeouts =
      counters_.queue_timeouts.load(std::memory_order_relaxed);
  snap.retries = counters_.retries.load(std::memory_order_relaxed);
  snap.transient_faults =
      counters_.transient_faults.load(std::memory_order_relaxed);
  snap.no_retry_deadline =
      counters_.no_retry_deadline.load(std::memory_order_relaxed);
  snap.no_retry_non_idempotent =
      counters_.no_retry_non_idempotent.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    snap.mode_submissions[i] =
        counters_.mode_submissions[i].load(std::memory_order_relaxed);
  }
  snap.step_downs = breaker_.step_downs();
  snap.step_ups = breaker_.step_ups();
  snap.epochs_published = publisher_.published();
  snap.failed_swaps = publisher_.failed_swaps();
  snap.incoherent_snapshots =
      counters_.incoherent_snapshots.load(std::memory_order_relaxed);
  snap.feedback_updates =
      counters_.feedback_updates.load(std::memory_order_relaxed);
  snap.feedback_failures =
      counters_.feedback_failures.load(std::memory_order_relaxed);
  snap.latency_count = counters_.latency.count();
  snap.latency_total_seconds = counters_.latency.total_seconds();
  snap.latency_p50_seconds = counters_.latency.QuantileSeconds(0.5);
  snap.latency_p99_seconds = counters_.latency.QuantileSeconds(0.99);
  snap.search = ledger_.total();
  return snap;
}

}  // namespace condsel
