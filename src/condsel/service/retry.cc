#include "condsel/service/retry.h"

#include <algorithm>
#include <cmath>

namespace condsel {

bool RetryableStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:  // only with caller budget left;
                                         // DecideRetry enforces that
      return true;
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDataLoss:
    case StatusCode::kInternal:
    case StatusCode::kRejectedOverload:
      return false;
  }
  return false;
}

double BackoffSeconds(const RetryPolicy& policy, int attempt, Rng* rng) {
  const int exponent = std::max(0, attempt - 1);
  double backoff = policy.initial_backoff_seconds *
                   std::pow(kBackoffMultiplier, exponent);
  if (rng != nullptr) {
    const double lo = 1.0 - kJitterFraction;
    const double span = 2.0 * kJitterFraction;
    backoff *= lo + span * rng->NextDouble();
  }
  return std::min(backoff, policy.max_backoff_seconds);
}

RetryDecision DecideRetry(const RetryPolicy& policy, StatusCode code,
                          int attempt, double remaining_deadline_seconds,
                          Rng* rng) {
  RetryDecision d;
  if (attempt >= policy.max_attempts) {
    d.reason = "attempt limit reached";
    return d;
  }
  if (!RetryableStatusCode(code)) {
    d.reason = "terminal status code";
    return d;
  }
  const double backoff = BackoffSeconds(policy, attempt, rng);
  if (!(remaining_deadline_seconds > backoff)) {
    // Deadline exhaustion never retries: the backoff alone would outlive
    // the caller's budget, so the retry could not even start in time.
    d.deadline_exhausted = true;
    d.reason = "caller deadline exhausted";
    return d;
  }
  d.retry = true;
  d.backoff_seconds = backoff;
  d.reason = code == StatusCode::kDeadlineExceeded
                 ? "per-attempt deadline overrun, caller budget left"
                 : "transient failure";
  return d;
}

}  // namespace condsel
