// Predicates of the canonical SPJ form (Section 2 of the paper).
//
// A query is represented as sigma_{p1 ^ ... ^ pn}(R1 x ... x Rk), where
// each p_i is either a range filter over one column (R.a in [lo, hi]) or an
// equi-join between two columns (R.x = S.y). Predicates are value types
// with a total order, so canonical (sorted) predicate lists can key global
// caches shared across queries.

#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "condsel/catalog/schema.h"
#include "condsel/query/predicate_set.h"

namespace condsel {

class Catalog;

enum class PredicateKind : uint8_t { kFilter, kJoin };

class Predicate {
 public:
  // Range filter: column in [lo, hi], both inclusive.
  static Predicate Filter(ColumnRef column, int64_t lo, int64_t hi);
  // Equality filter: column == v.
  static Predicate Equals(ColumnRef column, int64_t v);
  // Equi-join: left == right. Canonicalized so left <= right.
  static Predicate Join(ColumnRef left, ColumnRef right);

  PredicateKind kind() const { return kind_; }
  bool is_filter() const { return kind_ == PredicateKind::kFilter; }
  bool is_join() const { return kind_ == PredicateKind::kJoin; }

  // Filter accessors (abort on joins).
  ColumnRef column() const;
  int64_t lo() const;
  int64_t hi() const;

  // Join accessors (abort on filters).
  ColumnRef left() const;
  ColumnRef right() const;

  // Bitmask of tables referenced by this predicate.
  TableSet tables() const;

  // Columns referenced: 1 for a filter, 2 for a join. A view of the
  // predicate's own storage, so walking it allocates nothing.
  std::span<const ColumnRef> attrs() const {
    return {cols_, is_join() ? 2u : 1u};
  }

  // Debug string, e.g. "T2.c1 in [5,20]" or "T0.c3 = T1.c0".
  std::string ToString(const Catalog& catalog) const;
  std::string ToString() const;

  friend bool operator==(const Predicate&, const Predicate&) = default;
  friend std::strong_ordering operator<=>(const Predicate&,
                                          const Predicate&) = default;

 private:
  Predicate() = default;

  PredicateKind kind_ = PredicateKind::kFilter;
  // Filter: cols_[0] with range [lo_, hi_]. Join: cols_[0] = cols_[1].
  ColumnRef cols_[2];
  int64_t lo_ = 0;
  int64_t hi_ = 0;
};

// Bitmask of tables referenced by the predicates of `preds` selected by
// `subset` — the paper's tables(P).
TableSet TablesOf(const std::vector<Predicate>& preds, PredSet subset);

}  // namespace condsel

