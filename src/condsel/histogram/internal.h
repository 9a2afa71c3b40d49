// Shared helpers for the histogram builders. Internal to
// condsel/histogram; do not include from outside the module.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/histogram/histogram.h"

namespace condsel {
namespace histogram_internal {

// Builds one bucket from the distinct-value runs [begin, end).
Bucket MakeBucket(const ValueRuns& runs, size_t begin, size_t end,
                  double source_cardinality);

// Sorts values and returns their distinct-value runs. Empty result for
// empty input.
ValueRuns PrepareRuns(std::vector<int64_t>& values);

// The builders proper, over runs (builders.h documents each type). Only
// BuildHistogramFromRuns calls them, after checking their preconditions.
Histogram MaxDiffFromRuns(const ValueRuns& runs, double source_cardinality,
                          int max_buckets);
Histogram EquiDepthFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets);
Histogram EquiWidthFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets);
Histogram EndBiasedFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets);

}  // namespace histogram_internal
}  // namespace condsel
