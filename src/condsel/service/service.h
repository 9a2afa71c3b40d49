// EstimationService — the fault-tolerant, admission-controlled front end
// over the estimation library.
//
// The library (api.h's Estimator) assumes one well-behaved caller; a
// long-running optimizer process has many, arriving concurrently, under
// statistics refresh churn, with strict latency budgets. The service
// turns every failure mode into a policy decision instead of a crash or
// a stall:
//
//   snapshot epochs   every Submit pins an immutable epoch-numbered
//                     Snapshot (catalog + SIT pool); Refresh atomically
//                     swaps in a new epoch and never blocks or retroactively
//                     alters in-flight estimates (snapshot.h);
//   admission         per-tenant token buckets + a global concurrency cap
//                     with bounded-queue load shedding; overload is an
//                     explicit REJECTED_OVERLOAD, never unbounded latency
//                     (admission.h);
//   retry             transient failures (a lookup fault unwinding an
//                     attempt, a swap-window UNAVAILABLE) retry with
//                     jittered exponential backoff, always inside the
//                     caller's deadline; deterministic failures never
//                     retry (retry.h);
//   degradation       a per-tenant circuit breaker steps estimates down
//                     full GS → budget-capped GS → independence fallback
//                     under sustained failures, and back up on recovery
//                     (circuit_breaker.h);
//   telemetry         QPS-grade counters, p50/p99 latency, per-outcome
//                     admission/retry/degradation accounting, and an
//                     exactly-once GsStats aggregate (service_stats.h).
//
// Thread-safety: every public method is safe to call from any thread.
// Submit runs the estimate on the caller's thread (in-process service);
// internal state is synchronized per component, and the per-call
// Estimator session is thread-local to the call.

#pragma once

#include <string>
#include <vector>

#include "condsel/api.h"
#include "condsel/catalog/part_stats.h"
#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/rng.h"
#include "condsel/common/status.h"
#include "condsel/common/thread_annotations.h"
#include "condsel/query/query.h"
#include "condsel/service/admission.h"
#include "condsel/service/circuit_breaker.h"
#include "condsel/service/retry.h"
#include "condsel/service/service_stats.h"
#include "condsel/service/snapshot.h"

namespace condsel {

struct ServiceOptions {
  Ranking ranking = Ranking::kDiff;
  AdmissionOptions admission;
  RetryPolicy retry;
  BreakerOptions breaker;
  // Cap on the admission-queue wait when the caller set no deadline, so a
  // shed decision is always reached.
  double max_queue_wait_seconds = 0.05;
};

struct SubmitOptions {
  // Whole-call deadline (queue wait + attempts + backoffs) in seconds;
  // 0 = unlimited.
  double deadline_seconds = 0.0;
};

// Maps an exception that unwound an estimation attempt to the Status the
// retry classifier sees: the library's known-transient TransientFault
// becomes retryable UNAVAILABLE; any other std::exception is a
// deterministic bug and becomes terminal INTERNAL — replaying it would
// fail the same way while burning retry budget. `op` names the operation
// for the status message.
Status ClassifyAttemptException(const char* op, const std::exception& e);

struct ServiceEstimate {
  double selectivity = 1.0;
  double cardinality = 0.0;
  uint64_t epoch = 0;                        // snapshot the estimate used
  ServiceMode mode = ServiceMode::kFull;     // ladder rung it ran at
  int attempts = 1;                          // tries consumed (>= 1)
  bool degraded = false;   // any subproblem fell back to independence
  double latency_seconds = 0.0;              // admission to return
};

class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = {});

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // Publishes a new snapshot epoch from `catalog` + `pool`. In-flight
  // estimates keep their pinned epoch; new Submits see the new one.
  // UNAVAILABLE if the swap failed (injected or real) — the previous
  // epoch stays current.
  StatusOr<uint64_t> Refresh(Catalog catalog, SitPool pool);

  // Wires `maintainer` (borrowed; must outlive the service) as the
  // statistics maintenance back end and publishes its merged per-part
  // statistics as a fresh epoch. Runs BuildAll first if the maintainer
  // has never built its entries (stats_generation() == 0). Returns the
  // published epoch.
  StatusOr<uint64_t> EnableDeltaMaintenance(PartStatsMaintainer* maintainer)
      CONDSEL_EXCLUDES(maintenance_mu_);

  // Applies one insert/delete batch through the maintainer — rebuilding
  // only the invalidated per-part statistics — and publishes the result
  // as a delta-refreshed epoch. In-flight Submits keep their pinned
  // epoch; the maintainer's catalog is never read by the estimate path,
  // so concurrent Submit storms race only on the epoch swap. On any
  // failure (invalid batch, corrupt rebuilt statistics, failed swap) the
  // previous epoch stays current — a half-refreshed pool is never
  // published. FAILED_PRECONDITION before EnableDeltaMaintenance.
  StatusOr<DeltaReport> ApplyDelta(const DeltaBatch& batch)
      CONDSEL_EXCLUDES(maintenance_mu_);

  // One estimation request for `tenant`. Runs admission, pins a
  // snapshot, estimates (with retries per the policy), and accounts the
  // outcome. Errors:
  //   REJECTED_OVERLOAD    shed by quota or bounded queue;
  //   DEADLINE_EXCEEDED    spent the whole-call deadline (queueing,
  //                        estimating, or backing off);
  //   FAILED_PRECONDITION  no epoch published yet, or the snapshot lacks
  //                        required statistics;
  //   UNAVAILABLE          transient failures outlived every retry;
  //   INVALID_ARGUMENT     the query itself is malformed.
  StatusOr<ServiceEstimate> Submit(const std::string& tenant,
                                   const Query& query,
                                   SubmitOptions options = {});

  // Best-effort cache warming: runs each query through Submit so the
  // snapshot's memo and sessions are hot before real traffic lands, and
  // deliberately discards every per-query outcome (a cold standby being
  // rejected by admission or racing a refresh is expected, not an
  // error). Returns the number of prewarm submits that succeeded.
  size_t Prewarm(const std::string& tenant,
                 const std::vector<Query>& queries,
                 SubmitOptions options = {});

  ServiceStatsSnapshot Stats() const;

  uint64_t current_epoch() const { return publisher_.current_epoch(); }
  size_t live_epochs() const { return publisher_.live_epochs(); }

 private:
  // Budget for one attempt at `mode` with `remaining_seconds` of caller
  // budget left.
  EstimationBudget BudgetForMode(ServiceMode mode,
                                 double remaining_seconds) const;
  // Merges the maintainer's statistics into a new pool and publishes it
  // with the maintainer's catalog as the next epoch.
  StatusOr<uint64_t> PublishMergedPool() CONDSEL_REQUIRES(maintenance_mu_);
  // One estimation attempt against `snap`; adds its search stats to the
  // ledger. Returns the estimate or the attempt's failure status.
  StatusOr<ServiceEstimate> Attempt(const Query& query,
                                    const Snapshot& snap,
                                    ServiceMode mode,
                                    double remaining_seconds);

  const ServiceOptions options_;
  SnapshotPublisher publisher_;
  AdmissionController admission_;
  CircuitBreakerLadder breaker_;
  ServiceCounters counters_;
  GsStatsLedger ledger_;
  // Decomposition skeletons shared across every per-attempt estimator
  // (the per-attempt sessions are otherwise cold): Prewarm fills it, and
  // repeated statement shapes skip candidate enumeration from then on.
  // Holds query structure only — no statistics — so snapshot epoch swaps
  // and delta refreshes never invalidate it (see shape_cache.h).
  ShapeCache shape_cache_;

  // Backoff jitter stream; Rng is not thread-safe, so draws serialize.
  mutable OrderedMutex jitter_mu_{lock_rank::kServiceJitter,
                                  "EstimationService::jitter_mu_"};
  Rng jitter_rng_ CONDSEL_GUARDED_BY(jitter_mu_);

  // Serializes delta maintenance end-to-end: the catalog mutation, the
  // part-stats rebuild, and the publish of the refreshed epoch. Outer to
  // the snapshot pair (a maintenance pass finishes inside Publish); never
  // taken by the estimate path.
  mutable OrderedMutex maintenance_mu_{lock_rank::kPartMaintenance,
                                       "EstimationService::maintenance_mu_"};
  PartStatsMaintainer* maintainer_ CONDSEL_GUARDED_BY(maintenance_mu_) =
      nullptr;
};

}  // namespace condsel
