// Deterministic fault injection for robustness tests.
//
// Production code queries the process-wide injector at a handful of choke
// points (SIT matching, histogram lookups, budget deadline checks); every
// fault defaults to off, so the cost on the happy path is one relaxed
// atomic load guarded behind `armed()`. Tests arm faults through
// ScopedFault, which restores the previous state on destruction, keeping
// suites order-independent.
//
// Supported faults:
//  - kDropSits: SitMatcher returns no candidates, simulating a pool whose
//    SITs were never built or failed to load (degradation to base
//    histograms / independence must kick in, never an abort);
//  - kCorruptHistograms: every histogram range lookup returns NaN, as a
//    flipped bucket would produce — exercising the NaN sanitization path;
//  - kExpireDeadline: EstimationBudget deadline checks report expiry
//    immediately, making timeout degradation deterministic in tests.
//  - kCorruptDerivationFactor: getSelectivity records an out-of-range
//    factor selectivity into its derivation DAG (the estimate itself is
//    untouched) — the DerivationAuditor must report it, proving the
//    finite-range check can fail (mutation self-test).
//  - kCorruptHypothesisSet: getSelectivity records SIT hypothesis sets
//    that claim predicates outside the conditioning set — the auditor's
//    hypothesis-consistency check must catch it (mutation self-test).
//  - kSlowAtomicLookup: every AtomicSelectivityProvider scoring pass
//    sleeps briefly, simulating cold statistics storage — deadline
//    enforcement inside the decomposition enumeration must keep the
//    overshoot bounded by one lookup, not one subproblem. Tests can
//    restrict the stall to factors intersecting a predicate mask
//    (SetSlowLookupMask), making a chosen slice of the subset lattice
//    orders of magnitude more expensive than the rest.
//  - kThrowAtomicLookup: the provider's public scoring entry point throws
//    (simulating an embedder hook or allocation failure escaping
//    mid-search) — RAII cleanup such as ScopedDeadline must leave shared
//    state clean on the unwind path. The BaseAtom degradation path stays
//    exempt, like the deadline: the fallback must outlive the fault.
//  - kFailSnapshotSwap: SnapshotPublisher::Publish reports UNAVAILABLE
//    without swapping, simulating a refresh pipeline that failed to
//    materialize its statistics mid-swap — in-flight sessions must keep
//    the previous epoch, and the failed swap must never publish a
//    half-built snapshot (the chaos soak's mid-swap failure scenario).
//  - kSlowRefresh: SnapshotPublisher::Publish stalls briefly *before*
//    taking the publication lock, simulating a slow statistics rebuild —
//    estimates on the current epoch must keep flowing at full rate while
//    the refresh drags (the discipline condsel_model's blocking-reachable
//    check polices).
//  - kCorruptPartStats: PartStatsSet::BuildMergedPool corrupts one
//    working-copy piece (NaN source cardinality, the scalar a torn write
//    would hit) before validation — the merge must answer DATA_LOSS, and
//    a half-corrupt pool must never be published as a snapshot.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/thread_annotations.h"

namespace condsel {

// The exception injected throw sites raise (kThrowAtomicLookup). It is a
// distinct type so catch sites can tell "a known-transient condition
// unwound this attempt" (retryable UNAVAILABLE) apart from an arbitrary
// std::exception escaping the library, which is a bug and must surface as
// terminal INTERNAL rather than be retried as if transient.
class TransientFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Fault {
  kDropSits = 0,
  kCorruptHistograms,
  kExpireDeadline,
  kCorruptDerivationFactor,
  kCorruptHypothesisSet,
  kSlowAtomicLookup,
  kThrowAtomicLookup,
  kFailSnapshotSwap,
  kSlowRefresh,
  kCorruptPartStats,
};

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // True iff any fault is armed; the cheap first-level check production
  // call sites use.
  bool armed() const { return armed_.load(std::memory_order_relaxed) != 0; }

  bool enabled(Fault f) const {
    return armed() && faults_[Index(f)].load(std::memory_order_relaxed);
  }

  // Writers serialize on mu_: concurrent Set/Reset calls (test fixtures
  // arming faults while another thread disarms) would otherwise race the
  // exchange-then-count update and leave armed_ out of sync with faults_.
  // Readers stay lock-free: armed()/enabled() are the production hot path.
  void Set(Fault f, bool on) CONDSEL_EXCLUDES(mu_);
  void Reset() CONDSEL_EXCLUDES(mu_);  // disarm everything, mask to all-ones

  // Scope of kSlowAtomicLookup: the stall only fires for factors whose
  // predicate bitmask intersects `mask` (default ~0u = every factor).
  // Lets tests slow down a chosen slice of the subset lattice to force
  // per-level cost imbalance.
  void SetSlowLookupMask(uint32_t mask) CONDSEL_EXCLUDES(mu_);
  uint32_t slow_lookup_mask() const {
    return slow_lookup_mask_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;
  static constexpr int kNumFaults = 10;
  static int Index(Fault f) { return static_cast<int>(f); }

  // Serializes writers; reads are atomic. Leaf rank: nothing may be
  // acquired while holding it.
  OrderedMutex mu_{lock_rank::kFaultInjector, "FaultInjector::mu_"};
  std::atomic<int> armed_{0};  // number of armed faults
  std::atomic<bool> faults_[kNumFaults] = {};
  std::atomic<uint32_t> slow_lookup_mask_{~0u};
};

// RAII predicate-mask scope for kSlowAtomicLookup; restores the
// match-everything default on destruction.
class ScopedSlowLookupMask {
 public:
  explicit ScopedSlowLookupMask(uint32_t mask) {
    FaultInjector::Instance().SetSlowLookupMask(mask);
  }
  ~ScopedSlowLookupMask() {
    FaultInjector::Instance().SetSlowLookupMask(~0u);
  }

  ScopedSlowLookupMask(const ScopedSlowLookupMask&) = delete;
  ScopedSlowLookupMask& operator=(const ScopedSlowLookupMask&) = delete;
};

// RAII arm/disarm for tests.
class ScopedFault {
 public:
  explicit ScopedFault(Fault f) : fault_(f) {
    FaultInjector::Instance().Set(f, true);
  }
  ~ScopedFault() { FaultInjector::Instance().Set(fault_, false); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  Fault fault_;
};

}  // namespace condsel

