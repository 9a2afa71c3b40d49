// Separability (Definition 2) and the standard decomposition (Lemma 2).
//
// Sel_R(P | Q) is separable when P ∪ Q splits into table-disjoint parts;
// by Property 2 the expression then factors exactly, with no independence
// assumption. Repeatedly separating yields the unique standard
// decomposition into non-separable factors, which getSelectivity (and
// Assumption 1 on histogram minimality) uses to prune the search space.

#pragma once

#include "condsel/query/join_graph.h"
#include "condsel/query/query.h"

namespace condsel {

// Separability of Sel(P | Q): components of P ∪ Q >= 2.
bool IsSeparableSel(const Query& query, PredSet p, PredSet cond = 0);

// The unique standard decomposition of Sel(P): the connected components
// of P, each a non-separable unconditioned factor, ordered canonically by
// lowest predicate index. Allocation-free, returned on the stack, for the
// per-subset DP hot path.
ComponentList StandardDecompositionFast(const Query& query, PredSet p);

}  // namespace condsel

