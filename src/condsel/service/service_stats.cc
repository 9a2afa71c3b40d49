#include "condsel/service/service_stats.h"

#include <algorithm>
#include <cmath>

namespace condsel {

int LatencyRecorder::BucketFor(double seconds) {
  const double micros = seconds * 1e6;
  if (!(micros > 1.0)) return 0;
  const int bucket = static_cast<int>(std::log2(micros));
  return bucket >= kBuckets ? kBuckets - 1 : bucket;
}

void LatencyRecorder::Record(double seconds) {
  buckets_[BucketFor(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) needs C++20 atomic<double>::fetch_add — not
  // guaranteed lock-free everywhere; a CAS loop keeps it portable.
  double expected = total_seconds_.load(std::memory_order_relaxed);
  while (!total_seconds_.compare_exchange_weak(expected, expected + seconds,
                                               std::memory_order_relaxed)) {
  }
}

double LatencyRecorder::total_seconds() const {
  return total_seconds_.load(std::memory_order_relaxed);
}

double LatencyRecorder::QuantileSeconds(double q) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper edge of bucket i: 2^(i+1) microseconds.
      return std::ldexp(1.0, i + 1) * 1e-6;
    }
  }
  return std::ldexp(1.0, kBuckets) * 1e-6;
}

void GsStatsLedger::Add(const GsStats& attempt) {
  const std::lock_guard<OrderedMutex> lock(mu_);
  AddGsStats(attempt, &total_);
}

GsStats GsStatsLedger::total() const {
  const std::lock_guard<OrderedMutex> lock(mu_);
  return total_;
}

}  // namespace condsel
