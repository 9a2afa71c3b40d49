// Histogram equi-join (Section 3.3 of the paper).
//
// Joining SIT_R(x,..|Q1) with SIT_R(y,..|Q2) on x = y yields both the join
// selectivity Sel(x=y | Q1, Q2) and a new histogram over the (now equal)
// join attribute on the join result, which can estimate further predicates
// on that attribute (the paper's Example 3).
//
// The computation aligns bucket boundaries and, inside each aligned
// interval, applies the containment/uniform-distinct assumption:
//   sel += f1' * f2' / max(d1', d2')
// where primes denote the fraction of the bucket falling in the interval.
//
// Both bucket lists are already sorted, so the aligned intervals come from
// one linear merge of the two: O(b1 + b2) time. An open-ended bucket
// (hi == INT64_MAX) contributes no end cut; the merge compares bucket ends
// instead of forming hi + 1, so the last interval ends at INT64_MAX.
//
// Two kernels share that one merge walk. JoinHistograms also builds the
// result histogram (a single allocation, its buckets); JoinSelectivity
// only sums, allocates nothing, and returns exactly
// JoinHistograms(h1, h2).selectivity — the kernel for a join factor with
// no further filter on its join column.

#pragma once

#include "condsel/histogram/histogram.h"

namespace condsel {

struct JoinEstimate {
  // Estimated Sel(x = y) over the cross product of the two source
  // relations, i.e. a fraction in [0, 1].
  double selectivity = 0.0;
  // Histogram over the join attribute on the join result. Frequencies are
  // normalized to the estimated join result; source_cardinality is the
  // estimated join cardinality |R1| * |R2| * selectivity.
  Histogram result;
};

JoinEstimate JoinHistograms(const Histogram& h1, const Histogram& h2);

// Sel(x = y) alone, bit-identical to JoinHistograms(h1, h2).selectivity.
double JoinSelectivity(const Histogram& h1, const Histogram& h2);

}  // namespace condsel
