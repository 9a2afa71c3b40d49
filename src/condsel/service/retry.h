// Retry classification and jittered exponential backoff.
//
// The service retries only what retrying can fix. Status codes partition
// into:
//   retryable — transient serving-side conditions: UNAVAILABLE (a failed
//     snapshot swap, a lookup fault that unwound one attempt) and
//     DEADLINE_EXCEEDED *when the caller's own deadline still has room
//     for another attempt* (the per-attempt clock ran out, not the
//     caller's);
//   terminal — everything deterministic: malformed requests
//     (INVALID_ARGUMENT, NOT_FOUND), missing statistics
//     (FAILED_PRECONDITION), count-budget exhaustion (RESOURCE_EXHAUSTED
//     — replaying the same search spends the same budget), corruption
//     (DATA_LOSS), library bugs (INTERNAL), and REJECTED_OVERLOAD —
//     retrying into an overloaded admission queue amplifies the overload
//     the rejection exists to shed.
//
// Backoff is exponential with full multiplicative jitter, capped, and
// always bounded by the caller's remaining deadline — a retry that could
// not start before the deadline is not attempted at all (deadline
// exhaustion never retries).

#pragma once

#include "condsel/common/rng.h"
#include "condsel/common/status.h"

namespace condsel {

struct RetryPolicy {
  int max_attempts = 3;                   // total tries, including the first
  double initial_backoff_seconds = 5e-4;  // before the first retry
  double max_backoff_seconds = 0.05;      // cap per sleep
};

// Growth factor of the backoff per failed attempt.
inline constexpr double kBackoffMultiplier = 2.0;
// Jitter scales each backoff by a factor uniform in [1-j, 1+j].
inline constexpr double kJitterFraction = 0.2;

// True when `code` names a transient condition a retry can outlive.
bool RetryableStatusCode(StatusCode code);

// Backoff before the retry following failed attempt number `attempt`
// (1-based). Exponential in `attempt`, scaled by a jitter factor drawn
// uniformly from [1 - kJitterFraction, 1 + kJitterFraction], capped at
// max_backoff_seconds (the cap applies after jitter, so the bound is
// hard). Deterministic given `rng`.
double BackoffSeconds(const RetryPolicy& policy, int attempt, Rng* rng);

// One retry decision, explainable (`reason` is a static string for
// telemetry and tests).
struct RetryDecision {
  bool retry = false;
  double backoff_seconds = 0.0;
  // The retry was denied because its backoff would outlive the caller's
  // remaining deadline.
  bool deadline_exhausted = false;
  const char* reason = "";
};

// Decides whether failed attempt `attempt` (1-based) with status `code`
// should be retried. `remaining_deadline_seconds` is the caller's unspent
// deadline (infinity when the caller set none). Never decides to retry
// when the backoff would not complete before the remaining deadline.
RetryDecision DecideRetry(const RetryPolicy& policy, StatusCode code,
                          int attempt, double remaining_deadline_seconds,
                          Rng* rng);

}  // namespace condsel
