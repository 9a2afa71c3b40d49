// Estimation budgets and their enforcement primitives.
//
// EstimationBudget is the user-facing knob set (moved here from
// get_selectivity.h, which re-exports it for include compatibility). The
// helper classes make the knobs enforceable:
//   - Deadline: an armed wall-clock point, checkable lock-free from any
//     thread (and from inside the provider's candidate loops, so a slow
//     statistics lookup cannot overshoot the deadline by a whole
//     subproblem), safely re-armable while readers run;
//   - ScopedDeadline: RAII arm/disarm, so no early return or exception
//     can leave a deadline armed past the call it was meant to bound;
//   - BudgetExhausted: whether any knob has run out, read from the
//     search's own GsStats. Those counters are plain integers: only the
//     thread running a search updates or reads them.
//
// Deadlines are per-call state: the driver owning a Compute() call arms
// its own Deadline and passes it down explicitly (Score's deadline
// argument, AtomicFactorCandidatesInto's deadline argument). No shared layer
// — in particular not the AtomicSelectivityProvider, which concurrent
// estimators share — ever stores a borrowed deadline pointer, so two
// searches on one provider can never clobber (or dangle) each other's
// clock. condsel_lint's raw-set-deadline rule keeps it that way.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace condsel {

// Caps on one memoized search. Each knob is a hard ceiling; 0 disables it.
// The deadline applies per top-level Compute() call (an optimizer's
// per-sub-plan latency budget), while the count caps are cumulative over
// the search's lifetime, matching the cumulative GsStats counters.
struct EstimationBudget {
  uint64_t max_subproblems = 0;            // memo entries computed
  uint64_t max_atomic_decompositions = 0;  // atomic decompositions scored
  double deadline_seconds = 0.0;           // wall clock per Compute() call

  bool unlimited() const {
    return max_subproblems == 0 && max_atomic_decompositions == 0 &&
           deadline_seconds <= 0.0;
  }
};

// Statistics getSelectivity reports about one search (Figure 8's timing
// split plus robustness accounting).
struct GsStats {
  uint64_t subproblems = 0;         // memo entries computed by the search
                                    // (degraded entries excluded)
  uint64_t memo_hits = 0;           // lookups answered from the memo
  uint64_t atomic_considered = 0;   // atomic decompositions scored
  // Fig. 8's split. histogram_seconds times the provider's Estimate calls
  // with the chosen SITs; analysis_seconds is the rest of each Compute()
  // call's wall time: search, memo, enumeration, view matching, ranking.
  double analysis_seconds = 0.0;
  double histogram_seconds = 0.0;
  // Robustness accounting:
  bool budget_exhausted = false;       // some knob of the budget ran out
  uint64_t degraded_subproblems = 0;   // entries answered by the fallback
  uint64_t default_fallbacks = 0;      // predicates with no base histogram
  // Shape-keyed decomposition cache (shape_cache.h); both zero when no
  // cache is attached. Warmth-dependent (a later session inherits the
  // lists an earlier one stored) — a hit and a miss yield bit-identical
  // candidate lists.
  uint64_t shape_cache_hits = 0;     // subsets whose candidates were copied
  uint64_t shape_cache_misses = 0;   // subsets enumerated from scratch
};

// An armed wall-clock deadline.
//
// Publication contract: Arm stores the expiry instant `at_` *before*
// releasing `armed_`, and Expired acquires `armed_` before reading `at_`
// — a reader that observes armed==true therefore always observes the
// matching (or a newer) expiry instant, never a stale one. Re-arming
// while other threads call Expired() is safe: both fields are atomic, so
// a racing reader sees either the old or the new deadline in full, never
// a torn mix. Expired() also consults the FaultInjector's kExpireDeadline
// hook so tests can fire the clock deterministically.
class Deadline {
 public:
  // Arms `seconds` from now. seconds <= 0, NaN, and a deadline past the
  // clock's range (+inf included) all mean no deadline: they disarm.
  void Arm(double seconds);
  void Disarm() { armed_.store(false, std::memory_order_release); }

  bool armed() const { return armed_.load(std::memory_order_acquire); }
  bool Expired() const;

 private:
  using Rep = std::chrono::steady_clock::rep;
  std::atomic<bool> armed_{false};
  std::atomic<Rep> at_{0};  // steady_clock duration-since-epoch ticks
};

// RAII arm/disarm of a borrowed Deadline. This is the only sanctioned way
// for a driver to arm a deadline around a search: destruction disarms on
// every path — normal return, early return, or exception — so a deadline
// can never stay armed past the call it bounds (the shared-provider
// dangling-deadline bug this replaces).
class ScopedDeadline {
 public:
  // `deadline` is borrowed and must outlive this object.
  ScopedDeadline(Deadline* deadline, double seconds) : deadline_(deadline) {
    deadline_->Arm(seconds);
  }
  ~ScopedDeadline() { deadline_->Disarm(); }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline* deadline_;
};

// True when any knob of `budget` has run out for the search whose
// counters are `stats`. `budget` may be null (unlimited).
bool BudgetExhausted(const EstimationBudget* budget, const GsStats& stats,
                     const Deadline& deadline);

// The atomic counters of the parallel driver that was deleted, and their
// BudgetExhausted overload. Nothing in src/ uses them: they stay only
// because the benchmark suite's TimeBookkeeping (bench/suite/layers.cc)
// still compiles against them. ROADMAP item 2, which replaces that model
// with probes in the real driver, deletes both.
struct BudgetCounters {
  std::atomic<uint64_t> subproblems{0};
  std::atomic<uint64_t> memo_hits{0};
  std::atomic<uint64_t> atomic_considered{0};
  std::atomic<uint64_t> degraded_subproblems{0};
  std::atomic<uint64_t> default_fallbacks{0};
  std::atomic<uint64_t> shape_cache_hits{0};
  std::atomic<uint64_t> shape_cache_misses{0};
  std::atomic<bool> budget_exhausted{false};
  std::atomic<double> analysis_seconds{0.0};
  std::atomic<double> histogram_seconds{0.0};
};

bool BudgetExhausted(const EstimationBudget* budget,
                     const BudgetCounters& counters,
                     const Deadline& deadline);

// Accumulates `delta` into `total`, for layers that sum many searches'
// GsStats into one total (the EstimationService's telemetry ledger):
// counters and timings sum, budget_exhausted ORs.
void AddGsStats(const GsStats& delta, GsStats* total);

}  // namespace condsel
