#include "condsel/histogram/histogram.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "condsel/common/fault_injector.h"
#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"

namespace condsel {

Histogram::Histogram(std::vector<Bucket> buckets, double source_cardinality)
    : buckets_(std::move(buckets)), source_cardinality_(source_cardinality) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    CONDSEL_CHECK(b.lo <= b.hi);
    CONDSEL_CHECK(b.frequency >= 0.0);
    if (i > 0) CONDSEL_CHECK(buckets_[i - 1].hi < b.lo);
    total_frequency_ += b.frequency;
  }
}

double Histogram::RangeSelectivity(int64_t lo, int64_t hi) const {
  // Fault injection: a flipped bucket produces NaN; emit it here so the
  // downstream sanitization layer (not this accessor) is what tests
  // exercise.
  {
    const FaultInjector& fi = FaultInjector::Instance();
    if (fi.armed() && fi.enabled(Fault::kCorruptHistograms)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  if (lo > hi) return 0.0;
  double sel = 0.0;
  for (const Bucket& b : buckets_) {
    if (b.hi < lo) continue;
    if (b.lo > hi) break;
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    const double frac = (static_cast<double>(ohi) -
                         static_cast<double>(olo) + 1.0) /
                        b.Width();
    sel += b.frequency * frac;
  }
  // Degenerate inputs (frequencies summing past 1 after rounding, widths
  // computed from extreme domains) must not leak outside [0, 1].
  return SanitizeSelectivity(sel);
}

double Histogram::EqualsSelectivity(int64_t v) const {
  for (const Bucket& b : buckets_) {
    if (v < b.lo || v > b.hi) continue;
    // Uniform-frequency assumption: each of the bucket's distinct values
    // carries frequency / distinct mass.
    if (b.distinct <= 0.0) return 0.0;
    return SanitizeSelectivity(b.frequency / b.distinct);
  }
  return 0.0;
}

double Histogram::TotalDistinct() const {
  double d = 0.0;
  for (const Bucket& b : buckets_) d += b.distinct;
  return d;
}

std::pair<int64_t, int64_t> Histogram::Domain() const {
  if (buckets_.empty()) return {0, -1};
  return {buckets_.front().lo, buckets_.back().hi};
}

std::string Histogram::ToString() const {
  std::string s = "Histogram(card=" + std::to_string(source_cardinality_);
  s += ", buckets=[";
  for (size_t i = 0; i < buckets_.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%" PRId64 ",%" PRId64 "]:f=%.4g,d=%.3g",
                  i > 0 ? " " : "", buckets_[i].lo, buckets_[i].hi,
                  buckets_[i].frequency, buckets_[i].distinct);
    s += buf;
  }
  s += "])";
  return s;
}

ValueRuns DistinctCounts(const std::vector<int64_t>& values) {
  ValueRuns out;
  for (size_t i = 0; i < values.size();) {
    CONDSEL_DCHECK(i == 0 || values[i - 1] <= values[i]);
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    out.emplace_back(values[i], static_cast<uint64_t>(j - i));
    i = j;
  }
  return out;
}

}  // namespace condsel
