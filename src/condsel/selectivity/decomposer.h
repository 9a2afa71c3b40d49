// Atomic-decomposition enumeration for the getSelectivity DP.
//
// For a non-separable predicate set P, enumerates the candidate head
// factors P' whose Sel(P' | P∖P') some SIT could approximate, in the
// canonical order the DP scores them:
//   1. single filters — first, because nInd scores many decompositions
//      equally (the paper's Section 3.5 motivation) and on ties the
//      first-seen candidate wins: a filter head is conditioned on the
//      joins, where filter-attribute SITs actually capture the
//      dependence, while a join head would be estimated from base
//      histograms, silently assuming independence from every filter;
//   2. filter pairs (approximable by multidimensional SITs);
//   3. single joins;
//   4. each join plus every non-empty combination of the filters over its
//      own columns (Example 3's shapes), the combinations in increasing
//      mask order: the non-empty submasks of Query::filters_on_join(j) ∩ P.
// Every group is read off masks the Query built once, so enumeration is
// mask arithmetic, with no per-call scan of the predicates.
// All other P' would need statistics no pool contains; their error is
// infinite (line 12's "no SITs available") and exploring them could never
// win, so they are skipped outright.
//
// The enumeration is a pure function of (query, p) — of the query's
// structure only, which is what lets the shape cache (shape_cache.h)
// hand a stored list to every statement of the same shape. The optional
// deadline bounds step 4's fan-out (2^filters combinations per join):
// when it expires the enumeration stops early and reports truncation, so
// a pathological query cannot overshoot a deadline by the whole
// enumeration.

#pragma once

#include "condsel/common/arena.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/budget.h"

namespace condsel {

// Appends the candidate head factors of `p`, in scoring order, to `out`
// (arena-backed scratch owned by the calling Compute). `truncated`
// (optional) is set iff the deadline expired mid-enumeration. A null or
// disarmed deadline never truncates. It performs no heap allocation
// beyond `out`'s arena growth.
void AtomicFactorCandidatesInto(const Query& query, PredSet p,
                                const Deadline* deadline, bool* truncated,
                                ArenaVector<PredSet>* out);

}  // namespace condsel
