#include <algorithm>
#include <cstdint>

#include "condsel/common/macros.h"
#include "condsel/histogram/builders.h"
#include "condsel/histogram/internal.h"

namespace condsel {

namespace histogram_internal {

Histogram EndBiasedFromRuns(const ValueRuns& runs, double source_cardinality,
                            int max_buckets) {
  if (runs.empty()) return Histogram({}, source_cardinality);

  // The (max_buckets - 1) most frequent values get singleton buckets; the
  // remaining values share range buckets split at the singleton gaps —
  // Ioannidis' end-biased layout, strong for equality predicates on
  // heavy hitters.
  const size_t d = runs.size();
  std::vector<size_t> order(d);
  for (size_t i = 0; i < d; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (runs[a].second != runs[b].second) {
      return runs[a].second > runs[b].second;
    }
    return a < b;
  });
  const size_t singles =
      std::min<size_t>(d, std::max<size_t>(1, max_buckets / 2));
  std::vector<bool> is_single(d, false);
  for (size_t k = 0; k < singles; ++k) is_single[order[k]] = true;

  std::vector<Bucket> buckets;
  size_t begin = 0;
  for (size_t i = 0; i < d; ++i) {
    if (!is_single[i]) continue;
    if (begin < i) {
      buckets.push_back(MakeBucket(runs, begin, i, source_cardinality));
    }
    buckets.push_back(MakeBucket(runs, i, i + 1, source_cardinality));
    begin = i + 1;
  }
  if (begin < d) {
    buckets.push_back(MakeBucket(runs, begin, d, source_cardinality));
  }

  // The layout can exceed the budget when singletons split many ranges;
  // merge the lightest adjacent non-singleton pairs until it fits.
  while (static_cast<int>(buckets.size()) > max_buckets &&
         buckets.size() >= 2) {
    size_t best = 0;
    double best_mass = -1.0;
    for (size_t i = 0; i + 1 < buckets.size(); ++i) {
      const double mass = buckets[i].frequency + buckets[i + 1].frequency;
      if (best_mass < 0.0 || mass < best_mass) {
        best_mass = mass;
        best = i;
      }
    }
    buckets[best].hi = buckets[best + 1].hi;
    buckets[best].frequency += buckets[best + 1].frequency;
    buckets[best].distinct += buckets[best + 1].distinct;
    buckets.erase(buckets.begin() + static_cast<long>(best) + 1);
  }
  return Histogram(std::move(buckets), source_cardinality);
}

}  // namespace histogram_internal

Histogram BuildEndBiased(std::vector<int64_t> values,
                         double source_cardinality, int max_buckets) {
  return BuildHistogramFromRuns(HistogramType::kEndBiased,
                                histogram_internal::PrepareRuns(values),
                                source_cardinality, max_buckets);
}

}  // namespace condsel
