// Histogram builders: MaxDiff(V,A), equi-depth, equi-width, end-biased.
//
// Every builder works from the attribute's per-value counts (ValueRuns,
// histogram.h) plus the total tuple count of the source relation
// (`source_cardinality` >= the counts' total; the difference is NULL
// tuples), and a bucket budget. BuildHistogramFromRuns takes the counts
// directly; the value-vector forms take the raw (not necessarily sorted)
// non-NULL values, sort them into counts and build the same histogram.
// The paper's experiments use MaxDiff histograms with at most 200 buckets
// [22]; the other types exist for the histogram-type ablation bench.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/histogram/histogram.h"

namespace condsel {

// MaxDiff(V,A): bucket boundaries at the (max_buckets - 1) largest
// differences in *area* (frequency x spread) between adjacent distinct
// values, so heavy or isolated values tend to get their own buckets.
Histogram BuildMaxDiff(std::vector<int64_t> values, double source_cardinality,
                       int max_buckets);

// Equi-depth: each bucket holds ~ the same number of tuples.
Histogram BuildEquiDepth(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets);

// Equi-width: the value domain is split into equally wide ranges.
Histogram BuildEquiWidth(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets);

// End-biased [Ioannidis]: singleton buckets for the most frequent values,
// range buckets for the rest — strong for equality predicates over
// heavy-hitter values.
Histogram BuildEndBiased(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets);

enum class HistogramType { kMaxDiff, kEquiDepth, kEquiWidth, kEndBiased };

Histogram BuildHistogram(HistogramType type, std::vector<int64_t> values,
                         double source_cardinality, int max_buckets);

// The same histogram from the values' runs (sorted distinct values with
// their counts): BuildHistogram(type, v, ...) equals
// BuildHistogramFromRuns(type, DistinctCounts(sorted v), ...) bucket for
// bucket. SIT builds count values instead of sorting them
// (sit/sit_builder.h).
Histogram BuildHistogramFromRuns(HistogramType type, const ValueRuns& runs,
                                 double source_cardinality, int max_buckets);

const char* HistogramTypeName(HistogramType type);

}  // namespace condsel

