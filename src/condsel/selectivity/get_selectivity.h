// getSelectivity (Figure 3): dynamic programming over predicate subsets.
//
// For a bound query, Compute(P) returns the most accurate estimation of
// Sel(P) under the configured error function, among all decompositions
// with non-separable, SIT-approximable factors (Theorem 1):
//  - separable P is split into its standard decomposition and the parts
//    solved independently (lines 3-7);
//  - non-separable P tries every atomic decomposition
//    Sel(P'|Q) * Sel(Q) whose factor shape some SIT could approximate
//    (line 12's "no SITs available" cases are skipped up front), keeping
//    the minimum merged error (lines 9-17);
//  - everything is memoized, so the optimizer's many sub-plan requests
//    against the same query cost one DP (Section 4's reuse).
//
// The class is the evaluation *driver* over three separable layers:
//   AtomicSelectivityProvider (atomic_provider.h) — the only code that
//     matches SITs and reads histograms, with provenance reporting;
//   AtomicFactorCandidates (decomposer.h) — the deadline-aware candidate
//     enumeration, a pure function of (query, subset);
//   SelectivityMemo (selectivity_memo.h) — the subset memo.
// The driver is the paper's depth-first recursion. A GetSelectivity is
// externally synchronized: one thread calls Compute() at a time.
// Independent estimators may share one provider concurrently.
//
// The DP is exponential in the number of predicates, so a production
// deployment caps it with an EstimationBudget. When the budget runs out —
// or when no SIT-approximable decomposition exists for a subset — the
// search degrades gracefully: the remaining subsets fall back to the
// independence-assumption estimate from base histograms (the noSit
// baseline's path), each predicate with no base histogram contributing a
// neutral 1.0. Compute() therefore always returns a finite selectivity in
// [0, 1] and never aborts or blocks; degradation is recorded in GsStats
// and visible in Explain().
//
// The run also collects the statistics the evaluation section reports:
// decomposition-analysis vs histogram-manipulation time (Fig. 8), memo
// hits, and subproblem counts.

#pragma once

#include <string>

#include "condsel/analysis/derivation.h"
#include "condsel/common/arena.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/selectivity/budget.h"
#include "condsel/selectivity/selectivity_memo.h"
#include "condsel/selectivity/shape_cache.h"

namespace condsel {

struct SelEstimate {
  double selectivity = 1.0;
  double error = 0.0;
};

class GetSelectivity {
 public:
  // All pointers are borrowed and must outlive this object. The
  // provider's matcher must already be bound to `query`. `budget` may
  // be null (unlimited); it is re-read on every Compute() call, so the
  // owner can tighten or relax it between requests. `shape` (optional)
  // is the decomposition skeleton of `query`'s canonical shape
  // (ShapeCache::Acquire): when attached, candidate enumeration is
  // served from — and lazily fills — the shared skeleton, so
  // structurally identical statements enumerate once.
  GetSelectivity(const Query* query, AtomicSelectivityProvider* provider,
                 const EstimationBudget* budget = nullptr,
                 ShapeCache::Entry* shape = nullptr);
  ~GetSelectivity();

  // Most accurate estimation of Sel(P) within budget. Memoized across
  // calls. Always finite, in [0, 1], and non-aborting: exhausted budget or
  // missing statistics degrade to the independence fallback (see stats()).
  SelEstimate Compute(PredSet p);

  // Human-readable best decomposition of a previously computed subset,
  // including the provenance of every statistic behind an atomic factor.
  std::string Explain(PredSet p) const;

  // Attaches a derivation recorder: every memo entry created from now on
  // is mirrored as a DerivationDag node for DerivationAuditor
  // (analysis/auditor.h). Attach before the first Compute() call — nodes
  // are recorded as entries are created, so entries memoized earlier
  // would be missing from the DAG (the auditor reports the resulting
  // dangling references). Pass nullptr to stop recording. The DAG is
  // borrowed and must outlive the recording.
  void set_recorder(DerivationDag* dag) { recorder_ = dag; }
  DerivationDag* recorder() const { return recorder_; }

  const GsStats& stats() const;

 private:
  // Depth-first recursion (the paper's Figure 3).
  const MemoEntry& ComputeEntry(PredSet p);

  // Scores the atomic decompositions of non-separable `p` over
  // `candidates` (arena-backed, built by the caller's enumeration pass),
  // solving each candidate's tail through ComputeEntry, estimates the
  // winner, and returns the finished entry (possibly degraded).
  MemoEntry SolveNonSeparable(PredSet p,
                              const ArenaVector<PredSet>& candidates);

  // Candidate enumeration for non-separable `p`, through the shape cache
  // when one is attached: a warm subset copies the skeleton's list, a
  // cold one enumerates and (if the pass was not deadline-truncated)
  // stores it. Cached and fresh lists are bit-identical by construction.
  void EnumerateCandidates(PredSet p, ArenaVector<PredSet>* out);
  // Independence-assumption fallback entry for `p` (the noSit path).
  MemoEntry DegradedEntry(PredSet p, FallbackReason reason);
  // Base-histogram estimate of one predicate; neutral 1.0 when no base
  // histogram exists. Memoized (re-entered by every degraded superset).
  const DerivationAtom& SinglePredicateFallback(int i);
  void ExplainRec(PredSet p, int indent, std::string* out) const;
  // Mirrors a memo entry into the attached recorder.
  void RecordEntry(PredSet p, const MemoEntry& entry);

  const Query* query_;
  AtomicSelectivityProvider* provider_;
  const EstimationBudget* budget_;
  ShapeCache::Entry* shape_;  // may be null: no shape cache attached
  DerivationDag* recorder_ = nullptr;
  SelectivityMemo memo_;
  // Per-Compute() scratch arena for candidate lists. Reset (retaining its
  // blocks) at the top of every Compute() call, so a warmed-up estimator
  // enumerates without allocating. Lifetime rule: no pointer into the arena may escape the
  // Compute() call that allocated it — memo entries store everything
  // inline (ComponentList, SitVec) for exactly this reason.
  Arena arena_;
  // Candidate-list scratch for Score calls.
  ScoreScratch scratch_;
  BudgetCounters counters_;
  // Deadline for the in-flight top-level Compute() call, armed via
  // ScopedDeadline and passed down explicitly per call (Score's deadline
  // argument) — never stored in the shared provider.
  Deadline deadline_;
  mutable GsStats stats_;  // snapshot of counters_, refreshed by stats()
};

}  // namespace condsel
