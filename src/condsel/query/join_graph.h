// Connectivity over predicate sets.
//
// Two predicates are connected when their table sets transitively
// intersect. The connected components of P ∪ Q are exactly the factors of
// the paper's *standard decomposition* (Lemma 2): Sel_R(P|Q) is separable
// (Definition 2) iff there is more than one component. The kernel is a
// flood fill over the per-predicate neighbour masks the Query built once
// (Query::neighbors), so each call is mask arithmetic only.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/query/predicate.h"
#include "condsel/query/predicate_set.h"
#include "condsel/query/query.h"

namespace condsel {

// Union-find over a small universe of integer ids (tables).
class UnionFind {
 public:
  explicit UnionFind(int n);

  int Find(int x);
  void Union(int a, int b);
  bool Connected(int a, int b) { return Find(a) == Find(b); }

 private:
  std::vector<int> parent_;
};

// Fixed-capacity component list: `subset` has at most kMaxPredicates
// bits, so at most that many components. Returned by value — the whole
// struct lives on the caller's stack, which is what makes the hot-path
// decomposition allocation-free.
struct ComponentList {
  PredSet comps[kMaxPredicates];
  int count = 0;

  const PredSet* begin() const { return comps; }
  const PredSet* end() const { return comps + count; }
  size_t size() const { return static_cast<size_t>(count); }
  bool empty() const { return count == 0; }
  PredSet operator[](size_t i) const { return comps[i]; }
};

// Partitions `subset` (a bitmask over `query`'s predicates) into connected
// components. Components are returned as bitmasks, ordered by their lowest
// predicate index, which makes the output canonical (used by Lemma 2's
// uniqueness). Performs no heap allocation.
ComponentList ConnectedComponents(const Query& query, PredSet subset);

// True iff `subset` has >= 2 connected components (Definition 2 with
// Q = empty; callers pass P ∪ Q for conditional expressions).
bool IsSeparable(const Query& query, PredSet subset);

// True iff the *tables* referenced by `subset` form one connected piece
// when linked by the join predicates inside `subset`. Differs from
// ConnectedComponents when a filter references a table no join touches.
bool JoinsConnectTables(const std::vector<Predicate>& preds, PredSet subset);

// All non-empty subsets of `candidates` with at most `max_size` elements
// that form a single connected component. Used for SIT pool generation
// (connected join expressions) and for enumerating plan-like sub-queries.
std::vector<PredSet> ConnectedSubsets(const Query& query, PredSet candidates,
                                      int max_size);

}  // namespace condsel
