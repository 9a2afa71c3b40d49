#include <cstdint>

#include "condsel/common/macros.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/internal.h"

namespace condsel {

namespace histogram_internal {

Histogram EquiWidthFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets) {
  if (runs.empty()) return Histogram({}, source_cardinality);

  const int64_t lo = runs.front().first;
  const int64_t hi = runs.back().first;
  // Arithmetic in double: hi - lo + 1 overflows int64 when the column
  // domain spans most of the representable range.
  const double width = (static_cast<double>(hi) - static_cast<double>(lo) +
                        1.0) /
                       static_cast<double>(max_buckets);

  std::vector<Bucket> buckets;
  size_t begin = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const bool last = (i + 1 == runs.size());
    // Close the bucket when the next run falls past this bucket's right
    // edge (value-domain based, unlike equi-depth's count-based rule).
    auto bucket_index = [&](int64_t v) {
      return static_cast<int64_t>(
          (static_cast<double>(v) - static_cast<double>(lo)) / width);
    };
    const bool next_outside =
        !last && bucket_index(runs[i + 1].first) > bucket_index(runs[i].first);
    if (last || next_outside) {
      buckets.push_back(MakeBucket(runs, begin, i + 1, source_cardinality));
      begin = i + 1;
    }
  }
  return Histogram(std::move(buckets), source_cardinality);
}

}  // namespace histogram_internal

Histogram BuildEquiWidth(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets) {
  return BuildHistogramFromRuns(HistogramType::kEquiWidth,
                                histogram_internal::PrepareRuns(values),
                                source_cardinality, max_buckets);
}

Histogram BuildHistogramFromRuns(HistogramType type, const ValueRuns& runs,
                                 double source_cardinality, int max_buckets) {
  CONDSEL_CHECK(max_buckets >= 1);
  uint64_t count = 0;
  for (const auto& run : runs) count += run.second;
  CONDSEL_CHECK(source_cardinality >= static_cast<double>(count));
  switch (type) {
    case HistogramType::kMaxDiff:
      return histogram_internal::MaxDiffFromRuns(runs, source_cardinality,
                                                 max_buckets);
    case HistogramType::kEquiDepth:
      return histogram_internal::EquiDepthFromRuns(runs, source_cardinality,
                                                   max_buckets);
    case HistogramType::kEquiWidth:
      return histogram_internal::EquiWidthFromRuns(runs, source_cardinality,
                                                   max_buckets);
    case HistogramType::kEndBiased:
      return histogram_internal::EndBiasedFromRuns(runs, source_cardinality,
                                                   max_buckets);
  }
  CONDSEL_CHECK(false);
  return Histogram({}, 0.0);
}

Histogram BuildHistogram(HistogramType type, std::vector<int64_t> values,
                         double source_cardinality, int max_buckets) {
  return BuildHistogramFromRuns(type, histogram_internal::PrepareRuns(values),
                                source_cardinality, max_buckets);
}

const char* HistogramTypeName(HistogramType type) {
  switch (type) {
    case HistogramType::kMaxDiff:
      return "maxdiff";
    case HistogramType::kEquiDepth:
      return "equidepth";
    case HistogramType::kEquiWidth:
      return "equiwidth";
    case HistogramType::kEndBiased:
      return "endbiased";
  }
  return "?";
}

}  // namespace condsel
