// The canonical SPJ query: an ordered list of predicates over a set of
// tables (Section 2). Predicate positions are stable, so PredSet bitmasks
// unambiguously name predicate subsets of this query.

#pragma once

#include <array>
#include <string>
#include <vector>

#include "condsel/query/predicate.h"
#include "condsel/query/predicate_set.h"

namespace condsel {

class Catalog;

class Query {
 public:
  Query() = default;
  explicit Query(std::vector<Predicate> predicates);

  int num_predicates() const {
    return static_cast<int>(predicates_.size());
  }
  const Predicate& predicate(int i) const {
    return predicates_[static_cast<size_t>(i)];
  }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  // All predicates of this query as a bitmask.
  PredSet all_predicates() const {
    return num_predicates() == 0
               ? 0u
               : (num_predicates() == kMaxPredicates
                      ? ~0u
                      : (1u << num_predicates()) - 1u);
  }

  // tables(P) for P = all predicates.
  TableSet tables() const { return tables_; }

  // tables(P) for an arbitrary subset.
  TableSet TablesOfSubset(PredSet subset) const {
    return TablesOf(predicates_, subset);
  }

  // Subset of `all_predicates()` that are joins / filters.
  PredSet join_predicates() const { return joins_; }
  PredSet filter_predicates() const { return filters_; }

  // The predicates sharing a table with predicate i, i included: the
  // edges of the predicate graph whose connected components are the
  // standard decomposition (query/join_graph.h).
  PredSet neighbors(int i) const {
    return neighbors_[static_cast<size_t>(i)];
  }

  // For a join predicate j, the filters over either of its two columns
  // (Example 3's attachable filters); empty for a filter.
  PredSet filters_on_join(int j) const {
    return join_filters_[static_cast<size_t>(j)];
  }

  // Extracts the selected predicates as a sorted (canonical) vector —
  // the key used by cross-query caches (cardinalities, SITs).
  std::vector<Predicate> CanonicalSubset(PredSet subset) const;

  std::string ToString(const Catalog& catalog) const;

 private:
  std::vector<Predicate> predicates_;
  TableSet tables_ = 0;
  PredSet joins_ = 0;
  PredSet filters_ = 0;
  // Per-predicate masks, built once by the constructor (O(n^2), n <= 32)
  // so the DP's per-subset kernels are pure mask arithmetic.
  std::array<PredSet, kMaxPredicates> neighbors_{};
  std::array<PredSet, kMaxPredicates> join_filters_{};
};

}  // namespace condsel

