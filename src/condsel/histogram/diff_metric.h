// The diff divergence of Section 3.5.
//
// diff compares the distribution of an attribute on its base table with
// its distribution on the result of a query expression:
//   diff = 1/2 * sum_x | f_base(x)/|R|  -  f_expr(x)/|T'| |
// (half the L1 / total-variation distance between the two normalized
// frequency vectors). 0 means identical distributions (the expression adds
// no information over the base histogram, Example 4); values near 1 mean
// the expression reshapes the attribute heavily.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/histogram/histogram.h"

namespace condsel {

// Exact diff from the two distributions' per-value counts (ValueRuns,
// histogram.h), walked once in value order. Used at SIT-build time, which
// counts both distributions over a column dictionary (sit/sit_builder.h).
// Either run list may be empty, in which case diff is 0 (an empty result
// carries no distributional information).
double ExactDiff(const ValueRuns& base_runs, const ValueRuns& expr_runs);

// The same diff from raw value vectors (non-NULL values with
// multiplicity): sorts copies into runs and calls the run-list form.
double ExactDiff(const std::vector<int64_t>& base_values,
                 const std::vector<int64_t>& expr_values);

// Histogram-level approximation of the same quantity (the paper's
// suggested implementation): aligns bucket boundaries and accumulates
// |p1 - p2| per aligned interval over the normalized distributions.
double HistogramDiff(const Histogram& h1, const Histogram& h2);

}  // namespace condsel

