// Recoverable errors, reported by value (the library uses no exceptions).
//
// CONDSEL_CHECK remains the tool for *internal invariants* — conditions no
// input can violate without a bug in this library. Everything a caller can
// trigger from the outside (a malformed query or SQL text, a corrupt
// statistics file, a SIT pool built against a different catalog) is
// reported through Status / StatusOr<T>, the library's one error type,
// with a machine-readable code the embedding optimizer can branch on
// (retry, degrade, or surface to the user).

#pragma once

#include <string>
#include <utility>

#include "condsel/common/macros.h"

namespace condsel {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // the request itself is malformed
  kNotFound,            // a referenced object (table, column) doesn't exist
  kFailedPrecondition,  // required statistics are missing
  kResourceExhausted,   // estimation budget spent (counts)
  kDeadlineExceeded,    // estimation budget spent (wall clock)
  kDataLoss,            // persisted state is corrupt
  kInternal,            // invariant violation surfaced as an error
  kRejectedOverload,    // admission control shed the request (quota or
                        // concurrency cap); retrying immediately makes
                        // overload worse — back off at the client
  kUnavailable,         // transient serving-side failure (a snapshot swap
                        // in flight, an injected lookup fault); safe to
                        // retry idempotent requests with backoff
};

const char* StatusCodeName(StatusCode code);

// [[nodiscard]]: silently dropping a Status is how recoverable errors
// become latent bugs. Call sites that legitimately proceed regardless
// must say so with a named sink (see StatusIgnored below), not `(void)`.
class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }
  static Status InvalidArgument(std::string m) {
    return Error(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Error(StatusCode::kNotFound, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Error(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Error(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Error(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Error(StatusCode::kDataLoss, std::move(m));
  }
  static Status Internal(std::string m) {
    return Error(StatusCode::kInternal, std::move(m));
  }
  static Status RejectedOverload(std::string m) {
    return Error(StatusCode::kRejectedOverload, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Error(StatusCode::kUnavailable, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "NOT_FOUND: no base histogram for R.a".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// A Status or a value. T must be default-constructible (all condsel value
// types are); the stored T is only meaningful when ok().
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit conversions keep call sites terse:
  //   StatusOr<double> f() { if (bad) return Status::NotFound(...); return 0.5; }
  StatusOr(Status status) : status_(std::move(status)) {
    // invariant: an OK StatusOr must be built from a value.
    CONDSEL_CHECK_MSG(!status_.ok(),
                      "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value) : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // Aborts with the status message if !ok(): callers that cannot handle
  // the error (tests, trusted inputs) write .value(); the others branch
  // on ok() first.
  const T& value() const {
    // invariant: value() requires ok(); see the contract above.
    CONDSEL_CHECK_MSG(status_.ok(), status_.message().c_str());
    return value_;
  }
  T& value() {
    // invariant: value() requires ok(); see the contract above.
    CONDSEL_CHECK_MSG(status_.ok(), status_.message().c_str());
    return value_;
  }
  const T& operator*() const { return value(); }
  T& operator*() { return value(); }

  // The value if ok, otherwise `fallback` — the graceful-degradation
  // one-liner: est.TryEstimateSelectivity(q).value_or(1.0).
  T value_or(T fallback) const { return ok() ? value_ : std::move(fallback); }

 private:
  Status status_;
  T value_{};
};

// The one sanctioned way to discard a Status/StatusOr on purpose (e.g. a
// best-effort side channel whose failure the caller tolerates by design).
// Grep-able, unlike a `(void)` cast — and the lint rule nodiscard-status
// rejects the cast form outright.
template <typename T>
void StatusIgnored(T&&) {}

}  // namespace condsel

// Propagates a non-OK Status to the caller; on OK, falls through. The
// status-flow analyzer (tools/condsel_flow.py) recognizes the macro as an
// escape, same as an explicit `if (Status s = expr; !s.ok()) return s;`,
// and the enclosing function may return Status or any StatusOr<T> (the
// error converts implicitly). Evaluates `expr` exactly once.
#define CONDSEL_RETURN_IF_ERROR(expr)                   \
  do {                                                  \
    ::condsel::Status condsel_status_tmp_ = (expr);     \
    if (!condsel_status_tmp_.ok()) {                    \
      return condsel_status_tmp_;                       \
    }                                                   \
  } while (0)

