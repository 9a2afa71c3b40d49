#include "condsel/histogram/diff_metric.h"

#include <algorithm>
#include <cmath>

namespace condsel {

double ExactDiff(const ValueRuns& base_runs, const ValueRuns& expr_runs) {
  if (base_runs.empty() || expr_runs.empty()) return 0.0;
  uint64_t na = 0, nb = 0;
  for (const auto& run : base_runs) na += run.second;
  for (const auto& run : expr_runs) nb += run.second;
  const double fa = static_cast<double>(na);
  const double fb = static_cast<double>(nb);

  // One term per value of either support, in ascending value order.
  double l1 = 0.0;
  size_t i = 0, j = 0;
  while (i < base_runs.size() || j < expr_runs.size()) {
    uint64_t ca = 0, cb = 0;
    if (j >= expr_runs.size() ||
        (i < base_runs.size() && base_runs[i].first < expr_runs[j].first)) {
      ca = base_runs[i++].second;
    } else if (i >= base_runs.size() ||
               expr_runs[j].first < base_runs[i].first) {
      cb = expr_runs[j++].second;
    } else {
      ca = base_runs[i++].second;
      cb = expr_runs[j++].second;
    }
    l1 += std::abs(static_cast<double>(ca) / fa -
                   static_cast<double>(cb) / fb);
  }
  return 0.5 * l1;
}

double ExactDiff(const std::vector<int64_t>& base_values,
                 const std::vector<int64_t>& expr_values) {
  std::vector<int64_t> a = base_values;
  std::vector<int64_t> b = expr_values;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return ExactDiff(DistinctCounts(a), DistinctCounts(b));
}

double HistogramDiff(const Histogram& h1, const Histogram& h2) {
  if (h1.empty() || h2.empty()) return 0.0;
  const double f1 = h1.total_frequency();
  const double f2 = h2.total_frequency();
  if (f1 <= 0.0 || f2 <= 0.0) return 0.0;

  std::vector<int64_t> cuts;
  for (const Histogram* h : {&h1, &h2}) {
    for (const Bucket& b : h->buckets()) {
      cuts.push_back(b.lo);
      cuts.push_back(b.hi + 1);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  double l1 = 0.0;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    const int64_t lo = cuts[k];
    const int64_t hi = cuts[k + 1] - 1;
    // Mass of each normalized distribution in [lo, hi].
    const double p1 = h1.RangeSelectivity(lo, hi) / f1;
    const double p2 = h2.RangeSelectivity(lo, hi) / f2;
    l1 += std::abs(p1 - p2);
  }
  return std::min(1.0, 0.5 * l1);
}

}  // namespace condsel
