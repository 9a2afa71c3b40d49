// Exact SPJ evaluation over the in-memory catalog.
//
// The evaluator answers three questions the rest of the system depends on:
//  - exact cardinality of sigma_P(tables(P)^x) for any predicate subset
//    (ground truth for the error metric, and the oracle behind GS-Opt);
//  - exact conditional selectivities Sel_R(P|Q) (Definition 1);
//  - materialized query-expression results (the input to SIT
//    construction, sit/sit_builder.h).
//
// Evaluation strategy: predicates are split into connected components
// (standard decomposition); per component, filters are applied per table
// and the component's tables — which are necessarily linked by its join
// predicates — are combined with hash joins, materializing row-id tuples.
// Component cardinalities multiply. Results are memoized per component in
// a shared CardinalityCache.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/common/status.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/query/query.h"

namespace condsel {

// Materialized join result: `tuple_rows` is row-major with one row index
// per table in `tables` for each output tuple.
struct JoinResult {
  std::vector<TableId> tables;
  std::vector<uint32_t> tuple_rows;
  size_t num_tuples = 0;

  // Position of `t` within `tables`; -1 when absent.
  int TableSlot(TableId t) const;
};

// Restricts evaluation to rows [begin, end) of one table; every other
// table contributes all of its rows. This is how per-part statistics are
// built (catalog/part_stats.h): restricting the owning table to one part
// partitions the expression result, because each result tuple selects
// exactly one row of that table. A full-range restriction is equivalent
// to none.
struct RowRestriction {
  TableId table = kInvalidTableId;
  size_t begin = 0;
  size_t end = 0;  // exclusive
};

class Evaluator {
 public:
  // `cache` may be nullptr to disable memoization (tests). Both pointers
  // must outlive the evaluator.
  Evaluator(const Catalog* catalog, CardinalityCache* cache);

  // |sigma_P(tables(P)^x)| for P = the predicates of `q` selected by
  // `subset`. An empty subset yields 1.0 (empty product of components).
  double Cardinality(const Query& q, PredSet subset);

  // Recoverable variants for untrusted requests (e.g. a deserialized or
  // user-assembled query): validate that `subset` selects existing
  // predicates and that every referenced table/column exists in the
  // catalog before evaluating, instead of CHECK-aborting mid-join.
  StatusOr<double> TryCardinality(const Query& q, PredSet subset);
  StatusOr<double> TryTrueSelectivity(const Query& q, PredSet p);

  // Sel_R(P) with R = tables(q) (Definition 1 with Q empty):
  // Cardinality(P) scaled by the cross-product of tables(q).
  double TrueSelectivity(const Query& q, PredSet p);

  // Sel_R(P|Q) (Definition 1). Tables referenced by P but not by Q enter
  // the denominator as unconstrained cross-product factors.
  double TrueConditionalSelectivity(const Query& q, PredSet p, PredSet q_set);

  // Fully evaluates one *connected* predicate subset (a single component).
  // `restriction` (optional) limits one table to a row range; restricted
  // evaluations never touch the CardinalityCache (the cache is keyed by
  // predicates alone).
  JoinResult EvaluateComponent(const Query& q, PredSet component,
                               const RowRestriction* restriction = nullptr);

  const Catalog& catalog() const { return *catalog_; }

 private:
  // Row indices of `table` passing all filters in `filters` (bitmask over
  // q's predicates; only filters on `table` are applied). A restriction
  // on `table` narrows the scanned row range.
  std::vector<uint32_t> FilteredRows(const Query& q, PredSet filters,
                                     TableId table,
                                     const RowRestriction* restriction) const;

  const Catalog* catalog_;
  CardinalityCache* cache_;
};

}  // namespace condsel

