#include <algorithm>
#include <cmath>
#include <cstdint>

#include "condsel/histogram/builders.h"
#include "condsel/histogram/internal.h"

namespace condsel {
namespace histogram_internal {

Bucket MakeBucket(const ValueRuns& runs, size_t begin, size_t end,
                  double source_cardinality) {
  Bucket b;
  b.lo = runs[begin].first;
  b.hi = runs[end - 1].first;
  uint64_t count = 0;
  for (size_t i = begin; i < end; ++i) count += runs[i].second;
  b.frequency = source_cardinality > 0.0
                    ? static_cast<double>(count) / source_cardinality
                    : 0.0;
  b.distinct = static_cast<double>(end - begin);
  return b;
}

ValueRuns PrepareRuns(std::vector<int64_t>& values) {
  std::sort(values.begin(), values.end());
  return DistinctCounts(values);
}

Histogram MaxDiffFromRuns(const ValueRuns& runs, double source_cardinality,
                          int max_buckets) {
  if (runs.empty()) return Histogram({}, source_cardinality);

  // Area of distinct value i: frequency(i) * spread(i), where spread is
  // the gap to the next distinct value (the last value gets the average
  // spread). Boundaries go after the (max_buckets - 1) largest areas.
  // Spreads are differences of arbitrary int64 values: compute in double
  // so extreme domains cannot overflow.
  const size_t d = runs.size();
  std::vector<double> area(d);
  double avg_spread = 1.0;
  if (d > 1) {
    avg_spread = (static_cast<double>(runs.back().first) -
                  static_cast<double>(runs.front().first)) /
                 static_cast<double>(d - 1);
  }
  for (size_t i = 0; i < d; ++i) {
    const double spread =
        (i + 1 < d) ? static_cast<double>(runs[i + 1].first) -
                          static_cast<double>(runs[i].first)
                    : avg_spread;
    area[i] = static_cast<double>(runs[i].second) * spread;
  }

  // MaxDiff(V,A) proper: a bucket boundary goes between adjacent distinct
  // values i and i+1 where the *difference* in area is largest, so spikes
  // get isolated from both sides. Boundary i means "a bucket ends at run
  // i"; the final run always ends the last bucket.
  std::vector<size_t> order(d - 1);
  for (size_t i = 0; i + 1 < d; ++i) order[i] = i;
  auto delta = [&](size_t i) { return std::abs(area[i + 1] - area[i]); };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (delta(a) != delta(b)) return delta(a) > delta(b);
    return a < b;
  });
  const size_t num_boundaries =
      std::min<size_t>(static_cast<size_t>(max_buckets) - 1, d - 1);
  std::vector<size_t> boundaries(
      order.begin(), order.begin() + static_cast<long>(num_boundaries));
  std::sort(boundaries.begin(), boundaries.end());

  std::vector<Bucket> buckets;
  size_t begin = 0;
  for (size_t b : boundaries) {
    buckets.push_back(MakeBucket(runs, begin, b + 1, source_cardinality));
    begin = b + 1;
  }
  buckets.push_back(MakeBucket(runs, begin, d, source_cardinality));
  return Histogram(std::move(buckets), source_cardinality);
}

}  // namespace histogram_internal

Histogram BuildMaxDiff(std::vector<int64_t> values, double source_cardinality,
                       int max_buckets) {
  return BuildHistogramFromRuns(HistogramType::kMaxDiff,
                                histogram_internal::PrepareRuns(values),
                                source_cardinality, max_buckets);
}

}  // namespace condsel
