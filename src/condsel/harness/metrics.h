// Experiment metrics (Section 5 "Metrics").
//
// The paper scores a technique on a query by estimating the cardinality
// of each *sub-query* of q, comparing with the exact cardinality, and
// averaging the absolute errors. Sub-queries are the plan-node family: for
// every connected sub-join-graph of q (including single joined tables),
// the node's predicates are those joins plus every filter of q applicable
// to the covered tables — exactly the intermediate results a bottom-up
// optimizer requests estimates for.

#pragma once

#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/exec/evaluator.h"
#include "condsel/query/query.h"

namespace condsel {

// The plan-node sub-queries of q, as predicate bitmasks, deduplicated,
// ordered by increasing size (bottom-up, as an optimizer would request
// them). Includes the full query; excludes the empty set.
std::vector<PredSet> SubPlanFamily(const Query& query);

// |tables(P)|^x — the cross-product cardinality a selectivity for P is
// scaled by to obtain a cardinality estimate.
double CrossProductCardinality(const Catalog& catalog, const Query& query,
                               PredSet p);

// The cardinality estimate for P from its selectivity: `selectivity`
// times CrossProductCardinality, sanitized. Every estimator entry point
// that reports a cardinality derives it here, so they agree bit for bit.
double CardinalityFromSelectivity(const Catalog& catalog, const Query& query,
                                  PredSet p, double selectivity);

}  // namespace condsel

