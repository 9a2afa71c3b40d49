// Conditional-selectivity expressions and decompositions (Section 2).
//
// Within one bound query, a factor Sel_R(P | Q) is a pair of predicate
// bitmasks (p, q); R is implied as tables(P ∪ Q). A decomposition is a
// product of factors obtained from Sel_R(P) by repeated atomic
// decompositions (Property 1): a chain S_1 * ... * S_k with
// Q_i = P_{i+1} ∪ ... ∪ P_k and the P_i partitioning P.

#pragma once

#include <string>
#include <vector>

#include "condsel/query/query.h"

namespace condsel {

struct Factor {
  PredSet p = 0;
  PredSet q = 0;

  friend bool operator==(const Factor&, const Factor&) = default;
};

using Decomposition = std::vector<Factor>;

// True iff `d` is a valid chain decomposition of Sel(full): the P_i are
// non-empty, disjoint, cover `full`, and each Q_i equals the union of the
// later factors' P_j (with Q_k empty).
bool IsChainDecomposition(PredSet full, const Decomposition& d);

std::string FactorToString(const Query& query, const Factor& f);

}  // namespace condsel

