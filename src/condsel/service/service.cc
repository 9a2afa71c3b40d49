#include "condsel/service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "condsel/common/fault_injector.h"
#include "condsel/harness/metrics.h"

namespace condsel {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Budget of the degradation ladder's kCapped rung (see BudgetForMode).
constexpr EstimationBudget kCappedBudget{/*max_subproblems=*/64,
                                         /*max_atomic_decompositions=*/512,
                                         /*deadline_seconds=*/0.005};

// Seed for the backoff jitter stream, fixed so retries are reproducible.
constexpr uint64_t kJitterSeed = 0x5e671ce5eedull;

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

EstimationService::EstimationService(ServiceOptions options)
    : options_(std::move(options)),
      admission_(options_.admission),
      breaker_(options_.breaker),
      jitter_rng_(kJitterSeed) {}

StatusOr<uint64_t> EstimationService::Refresh(Catalog catalog, SitPool pool) {
  return publisher_.Publish(std::move(catalog),
                            std::make_shared<const SitPool>(std::move(pool)));
}

StatusOr<uint64_t> EstimationService::PublishMergedPool() {
  StatusOr<std::shared_ptr<const SitPool>> pool = maintainer_->MergedPool();
  if (!pool.ok()) return StatusOr<uint64_t>(pool.status());
  // The snapshot gets its own catalog: Table copies share the immutable
  // part data through their handles, so unchanged parts are never
  // duplicated across epochs.
  Catalog catalog = maintainer_->catalog();
  // The merge and publish block only other maintenance passes and
  // refreshes; epoch_mu_ is taken only inside Publish's non-blocking
  // scoped blocks, so a session's Acquire() waits at most for a counter
  // bump or a pointer swap, hence:
  // condsel: allow(blocking-reachable)
  return publisher_.Publish(std::move(catalog), std::move(pool.value()));
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
  return PublishMergedPool();
}

StatusOr<DeltaReport> EstimationService::ApplyDelta(const DeltaBatch& batch) {
  const std::lock_guard<OrderedMutex> lock(maintenance_mu_);
  if (maintainer_ == nullptr) {
    return StatusOr<DeltaReport>(Status::FailedPrecondition(
        "delta maintenance is not enabled (call EnableDeltaMaintenance)"));
  }
  StatusOr<DeltaReport> report = maintainer_->ApplyDelta(batch);
  if (!report.ok()) return report;
  // A merge that fails validation (e.g. kCorruptPartStats) surfaces its
  // error with the previous epoch still current rather than publish a
  // poisoned pool.
  StatusOr<uint64_t> epoch = PublishMergedPool();
  if (!epoch.ok()) return StatusOr<DeltaReport>(epoch.status());
  return report;
}

EstimationBudget EstimationService::BudgetForMode(
    ServiceMode mode, double remaining_seconds) const {
  EstimationBudget budget;
  switch (mode) {
    case ServiceMode::kFull:
      break;  // unlimited counts, clocked only by the caller's deadline
    case ServiceMode::kCapped:
      budget = kCappedBudget;
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
  // Estimator::TryEstimateCardinality's formula, without its second pass
  // over the search.
  out.cardinality = CardinalityFromSelectivity(
      snap.catalog(), query, query.all_predicates(), selectivity);
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
  const double deadline_at = options.deadline_seconds > 0.0
                                 ? start + options.deadline_seconds
                                 : kNoDeadline;
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

  // kFull has no count caps, so it can only "fail" by deadline
  // degradation: the attempt is classified DEADLINE_EXCEEDED and retried
  // while the caller has budget left, and the degraded answer is kept as
  // the graceful floor if retries run out.
  const bool classify_degraded =
      mode == ServiceMode::kFull && deadline_at != kNoDeadline;
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
                             remaining(), &jitter_rng_);
    }
    if (!decision.retry) {
      if (decision.deadline_exhausted) {
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
  snap.latency_count = counters_.latency.count();
  snap.latency_total_seconds = counters_.latency.total_seconds();
  snap.latency_p50_seconds = counters_.latency.QuantileSeconds(0.5);
  snap.latency_p99_seconds = counters_.latency.QuantileSeconds(0.99);
  snap.search = ledger_.total();
  return snap;
}

}  // namespace condsel
