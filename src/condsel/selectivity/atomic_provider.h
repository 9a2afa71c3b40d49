// AtomicSelectivityProvider — the one layer that touches statistics.
//
// Every estimator in this library (the getSelectivity DP, the exhaustive
// reference, GVM, noSit, the feedback baseline, and the optimizer-coupled
// estimator) bottoms out in the same operation: approximate a factor
// Sel(P' | Q) with SITs, falling back to base histograms, sanitizing the
// result, and reporting where the number came from. This class owns that
// operation — SIT matching, histogram manipulation, SanitizeSelectivity,
// the FaultInjector slow-lookup hook, and FactorProvenance reporting —
// so no estimator reaches into Histogram::RangeSelectivity or
// JoinHistograms directly (condsel_lint's no-raw-histogram-lookup rule
// enforces this).
//
// Supported factor shapes for Sel(P' | Q) (Section 3.3):
//  - P' = one filter predicate: one SIT over the filter's attribute;
//  - P' = two filter predicates: one multidimensional SIT over the
//    attribute pair (Section 3.3's attribute-set form), capturing the
//    filters' correlation with no independence assumption between them;
//  - P' = one join predicate: two SITs (one per side) combined with a
//    histogram join (the wildcard transform of Sec 3.3 specialized to
//    unidimensional SITs, which is what the paper's pools contain);
//  - P' = one join plus filters over the join's own columns: histogram
//    join followed by range estimation on the result (Example 3).
// Any other multi-predicate P' would need a multidimensional SIT and is
// reported infeasible (error = infinity), exactly as getSelectivity's
// line 12 treats factors with no applicable statistics — the DP then
// reaches those predicates through further atomic decompositions.
//
// Thread-safety: the provider is stateless apart from borrowed pointers;
// after the matcher is bound to a query, Score/Estimate may be called
// concurrently by estimators sharing the provider (the matcher's call
// counter is atomic; its applicability index is read-only once bound).
// Deadlines are per-call arguments, never provider state: estimators
// sharing one provider each pass their own Deadline to Score, so
// concurrent searches cannot clobber each other's clock and an
// estimator destroyed mid-flight cannot leave a dangling deadline behind
// (the old set_deadline slot did both; condsel_lint's raw-set-deadline
// rule keeps it from coming back).

#pragma once

#include <string>
#include <vector>

#include "condsel/analysis/derivation.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/budget.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/sit/sit_matcher.h"

namespace condsel {

struct FactorChoice {
  bool feasible = false;
  double error = kInfiniteError;
  // Chosen SITs: {filter SIT}, or {left join SIT, right join SIT}.
  // Inline storage (SitVec): copying or memoizing a choice never touches
  // the heap.
  SitVec sits;
  // Filled by Score() only when the error function needs estimates;
  // otherwise computed later by Estimate().
  double estimate = -1.0;
};

// Reusable candidate-list scratch for Score(): the vectors are cleared
// and refilled per call, retaining their capacity, so a warmed-up driver
// scores factors without allocating. One instance per scoring thread —
// each GetSelectivity owns one; never share an instance concurrently.
struct ScoreScratch {
  std::vector<SitCandidate> left;
  std::vector<SitCandidate> right;
};

class AtomicSelectivityProvider {
 public:
  AtomicSelectivityProvider(SitMatcher* matcher,
                            const ErrorFunction* error_fn);

  // Cheap structural test: could Sel(P' | ...) be approximated at all?
  bool SupportedShape(const Query& query, PredSet p) const;

  // Picks the SITs minimizing the error function for Sel(P' | Q). Invokes
  // the view-matching routine (SitMatcher::Candidates); this is the
  // "decomposition analysis" side of the Fig. 8 timing split. `deadline`
  // is the caller's per-call clock (borrowed for this call only; nullptr
  // = none): when it expires mid-scoring, the remaining candidates are
  // skipped and the best choice found so far stands (possibly infeasible)
  // — the lookup, not the subproblem, bounds the overshoot. `scratch`
  // (optional, borrowed for this call like the deadline) lets hot-path
  // drivers reuse candidate-list storage across calls; nullptr scores
  // with call-local lists.
  FactorChoice Score(const Query& query, PredSet p, PredSet cond,
                     const Deadline* deadline = nullptr,
                     ScoreScratch* scratch = nullptr);

  // Histogram manipulation: evaluates the estimate of Sel(P' | Q) with
  // the chosen SITs. When `provenance` is non-null it is filled with one
  // record per chosen SIT (the strings are only built on request; pass
  // null on hot paths that do not record derivations).
  double Estimate(const Query& query, PredSet p, const FactorChoice& choice,
                  std::vector<FactorProvenance>* provenance = nullptr) const;

  // Provenance of a previously scored choice, without re-estimating —
  // lets Explain() and late recorders describe memoized decisions.
  std::vector<FactorProvenance> Describe(const Query& query, PredSet p,
                                         const FactorChoice& choice) const;

  // The shared single-predicate base-histogram path (conditioning on the
  // empty set restricts matching to base histograms): the traditional
  // noSit estimate of one predicate, as a derivation atom. has_stat is
  // false — and provenance carries the fallback reason — when the pool
  // lacks a base histogram for the column. `describe` controls whether
  // the provenance strings are built (skip on hot paths that do not
  // record derivations).
  DerivationAtom BaseAtom(const Query& query, int pred,
                          bool describe = true);

  // View-matching probe for estimators that walk candidates themselves
  // (GVM's greedy loop, charged per SIT examined like [4]'s view
  // matcher).
  std::vector<SitCandidate> Candidates(ColumnRef attr, PredSet cond,
                                       SitMatcher::CallAccounting accounting);

  // Estimates one filter predicate with one committed SIT (GVM's
  // rewritten-plan path), sanitized, with provenance.
  double EstimateFilterWith(const Query& query, int filter_pred,
                            const SitCandidate& cand,
                            FactorProvenance* provenance) const;

  const ErrorFunction& error_fn() const { return *error_fn_; }
  SitMatcher& matcher() { return *matcher_; }

  // Generation stamp of the statistics pool behind the matcher (0 for
  // pools outside the delta-maintenance path). Estimate caches keyed by
  // predicate subsets bind to this (SelectivityMemo::BindGeneration).
  uint64_t pool_generation() const { return matcher_->pool().generation(); }

 private:
  // Scoring core shared by Score and BaseAtom. BaseAtom scores through
  // here with no deadline and no throw hook: the independence fallback is
  // the degradation target and must stay available after the clock
  // expires (or a fault fires).
  FactorChoice ScoreImpl(const Query& query, PredSet p, PredSet cond,
                         const Deadline* deadline,
                         ScoreScratch* scratch = nullptr);

  // Splits P' into its join predicate (if any) and filters (a stack
  // array — at most kMaxPredicates of them); returns false for
  // unsupported shapes.
  bool SplitShape(const Query& query, PredSet p, int* join_pred,
                  int filter_preds[], int* num_filters) const;

  double EstimateWith(const Query& query, PredSet p, const SitVec& sits,
                      std::vector<FactorProvenance>* provenance) const;

  SitMatcher* matcher_;
  const ErrorFunction* error_fn_;
};

}  // namespace condsel
