// Unidimensional bucketed histograms.
//
// A histogram summarizes the distribution of one integer attribute over a
// source relation (a base table, or the result of a query expression when
// used as a SIT). Bucket frequencies are stored as *fractions of the source
// relation's total tuple count* (including NULL tuples), so
// RangeSelectivity() directly returns a selectivity in [0, 1] and NULL
// semantics fall out naturally (NULLs occupy no bucket).
//
// Estimation uses the standard continuous-values and uniform-frequency
// assumptions inside a bucket [22].

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace condsel {

struct Bucket {
  int64_t lo = 0;          // inclusive
  int64_t hi = 0;          // inclusive
  double frequency = 0.0;  // fraction of source tuples with value in range
  double distinct = 0.0;   // estimated number of distinct values in range

  // Computed in double: hi - lo + 1 overflows int64 on buckets spanning
  // most of the representable domain.
  double Width() const {
    return static_cast<double>(hi) - static_cast<double>(lo) + 1.0;
  }
};

class Histogram {
 public:
  Histogram() = default;
  // Buckets must be sorted by lo and non-overlapping.
  Histogram(std::vector<Bucket> buckets, double source_cardinality);

  const std::vector<Bucket>& buckets() const { return buckets_; }
  size_t num_buckets() const { return buckets_.size(); }
  bool empty() const { return buckets_.empty(); }

  // Number of tuples of the source relation (including NULL-attribute
  // tuples, which carry no bucket mass).
  double source_cardinality() const { return source_cardinality_; }

  // Sum of bucket frequencies == fraction of source tuples with a non-NULL
  // value; <= 1.
  double total_frequency() const { return total_frequency_; }

  // Estimated fraction of source tuples with value in [lo, hi].
  double RangeSelectivity(int64_t lo, int64_t hi) const;

  // Estimated fraction of source tuples with value == v.
  double EqualsSelectivity(int64_t v) const;

  // Estimated total number of distinct values.
  double TotalDistinct() const;

  // Value domain covered ([min lo, max hi]); {0,-1} when empty.
  std::pair<int64_t, int64_t> Domain() const;

  std::string ToString() const;

 private:
  std::vector<Bucket> buckets_;
  double source_cardinality_ = 0.0;
  double total_frequency_ = 0.0;
};

// The per-value counts every builder starts from: (value, count) pairs
// in strictly ascending value order, each count > 0, NULLs excluded.
using ValueRuns = std::vector<std::pair<int64_t, uint64_t>>;

// Collapses sorted raw values into runs. `values` must be sorted
// ascending and NULL-free.
ValueRuns DistinctCounts(const std::vector<int64_t>& values);

}  // namespace condsel

