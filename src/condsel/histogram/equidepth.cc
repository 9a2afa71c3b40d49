#include <cstdint>

#include "condsel/histogram/builders.h"
#include "condsel/histogram/internal.h"

namespace condsel {

namespace histogram_internal {

Histogram EquiDepthFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets) {
  if (runs.empty()) return Histogram({}, source_cardinality);

  uint64_t total = 0;
  for (const auto& r : runs) total += r.second;
  const double target =
      static_cast<double>(total) / static_cast<double>(max_buckets);

  std::vector<Bucket> buckets;
  size_t begin = 0;
  uint64_t in_bucket = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    in_bucket += runs[i].second;
    const bool last = (i + 1 == runs.size());
    const bool full = static_cast<double>(in_bucket) >= target &&
                      static_cast<int>(buckets.size()) < max_buckets - 1;
    if (last || full) {
      buckets.push_back(MakeBucket(runs, begin, i + 1, source_cardinality));
      begin = i + 1;
      in_bucket = 0;
    }
  }
  return Histogram(std::move(buckets), source_cardinality);
}

}  // namespace histogram_internal

Histogram BuildEquiDepth(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets) {
  return BuildHistogramFromRuns(HistogramType::kEquiDepth,
                                histogram_internal::PrepareRuns(values),
                                source_cardinality, max_buckets);
}

}  // namespace condsel
