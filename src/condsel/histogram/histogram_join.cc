#include "condsel/histogram/histogram_join.h"

#include <algorithm>
#include <vector>

#include "condsel/common/numeric.h"

namespace condsel {
namespace {

// Sub-bucket of `b` restricted to [lo, hi] ⊆ [b.lo, b.hi] under the
// continuous-values assumption.
struct Slice {
  double frequency = 0.0;
  double distinct = 0.0;
};

Slice SliceBucket(const Bucket& b, int64_t lo, int64_t hi) {
  // Width in double, like Bucket::Width(): hi - lo + 1 overflows int64 on
  // a slice spanning more than 2^63 values.
  const double frac =
      (static_cast<double>(hi) - static_cast<double>(lo) + 1.0) / b.Width();
  Slice s;
  s.frequency = b.frequency * frac;
  s.distinct = b.distinct * frac;
  return s;
}

// The merge walk both kernels share. Calls fn(bucket) once per aligned
// interval that carries join mass, in ascending order; the bucket's
// frequency is the interval's unnormalized contribution to Sel(x = y).
//
// The aligned intervals that lie inside a bucket of both histograms are
// exactly the non-empty overlaps [max(lo1, lo2), min(hi1, hi2)] of a
// bucket of h1 with a bucket of h2: each histogram's buckets are sorted
// and disjoint, so no other boundary of either side falls inside such an
// overlap. One merge over the two bucket lists visits them in order,
// retiring whichever bucket ends first (both when they end together).
// Every step retires a bucket, so there are at most b1 + b2 - 1 steps.
template <typename Fn>
void ForEachOverlap(const Histogram& h1, const Histogram& h2, Fn&& fn) {
  const std::vector<Bucket>& buckets1 = h1.buckets();
  const std::vector<Bucket>& buckets2 = h2.buckets();
  size_t i1 = 0, i2 = 0;
  while (i1 < buckets1.size() && i2 < buckets2.size()) {
    const Bucket& b1 = buckets1[i1];
    const Bucket& b2 = buckets2[i2];
    const int64_t lo = std::max(b1.lo, b2.lo);
    const int64_t hi = std::min(b1.hi, b2.hi);
    if (b1.hi <= b2.hi) ++i1;
    if (b2.hi <= b1.hi) ++i2;
    if (lo > hi) continue;

    const Slice s1 = SliceBucket(b1, lo, hi);
    const Slice s2 = SliceBucket(b2, lo, hi);
    const double dmax = std::max(s1.distinct, s2.distinct);
    if (dmax <= 0.0 || s1.frequency <= 0.0 || s2.frequency <= 0.0) continue;
    fn(Bucket{lo, hi, s1.frequency * s2.frequency / dmax,
              std::min(s1.distinct, s2.distinct)});
  }
}

}  // namespace

JoinEstimate JoinHistograms(const Histogram& h1, const Histogram& h2) {
  JoinEstimate out;
  if (h1.empty() || h2.empty()) {
    out.result = Histogram({}, 0.0);
    return out;
  }

  std::vector<Bucket> result_buckets;
  result_buckets.reserve(h1.buckets().size() + h2.buckets().size() - 1);
  double sel = 0.0;
  ForEachOverlap(h1, h2, [&](const Bucket& b) {
    sel += b.frequency;
    result_buckets.push_back(b);  // frequency normalized below
  });

  out.selectivity = SanitizeSelectivity(sel);
  if (sel > 0.0) {
    for (Bucket& b : result_buckets) b.frequency /= sel;
  }
  // Saturate: two near-max source cardinalities would overflow to inf.
  const double join_card = SaturatingMultiply(
      SaturatingMultiply(h1.source_cardinality(), h2.source_cardinality()),
      out.selectivity);
  out.result = Histogram(std::move(result_buckets), join_card);
  return out;
}

double JoinSelectivity(const Histogram& h1, const Histogram& h2) {
  double sel = 0.0;
  ForEachOverlap(h1, h2, [&sel](const Bucket& b) { sel += b.frequency; });
  return SanitizeSelectivity(sel);
}

}  // namespace condsel
