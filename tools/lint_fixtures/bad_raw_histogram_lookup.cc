// Fixture: estimator code reading a histogram's selectivity accessors,
// or calling a histogram-join kernel, directly instead of routing through
// AtomicSelectivityProvider — the lookup would bypass
// SanitizeSelectivity, the fault-injection hooks, FactorProvenance
// recording, and the per-piece merge of partitioned statistics.
// lint-fixture-path: src/condsel/baselines/bad_raw_histogram_lookup.cc
// lint-expect: no-raw-histogram-lookup

#include "condsel/histogram/histogram.h"
#include "condsel/histogram/histogram_join.h"

namespace condsel {

double EstimateFilter(const Histogram& h, int64_t lo, int64_t hi) {
  return SanitizeSelectivity(h.RangeSelectivity(lo, hi));
}

double EstimatePoint(const Histogram* h, int64_t v) {
  return SanitizeSelectivity(h->EqualsSelectivity(v));
}

double EstimateJoin(const Histogram& a, const Histogram& b) {
  return JoinHistograms(a, b).selectivity;
}

double EstimateJoinFast(const Histogram& a, const Histogram& b) {
  return JoinSelectivity(a, b);
}

}  // namespace condsel
