// Cross-query cache of exact cardinalities.
//
// Ground-truth evaluation is the dominant cost of the experiments: every
// technique is scored against exact sub-query cardinalities, and GS-Opt
// additionally consults them during search. Sub-queries repeat heavily both
// within one query (the DP touches many subsets) and across workload
// queries (same join sub-expressions), so results are memoized keyed by the
// canonical (sorted) predicate list.
//
// The cache is the structure concurrent estimator threads will share, so
// it synchronizes internally: map accesses hold mu_, entries are never
// erased (node pointers returned by Lookup stay valid for the cache's
// lifetime), and the hit/miss counters are relaxed atomics so readers of
// the statistics never contend with the lookup path.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/thread_annotations.h"
#include "condsel/query/predicate.h"

namespace condsel {

class CardinalityCache {
 public:
  // Returns the cached cardinality for `key`, or nullptr. The returned
  // pointer stays valid until the cache is destroyed (entries are never
  // erased or overwritten).
  const double* Lookup(const std::vector<Predicate>& key) const
      CONDSEL_EXCLUDES(mu_);

  void Insert(const std::vector<Predicate>& key, double cardinality)
      CONDSEL_EXCLUDES(mu_);

  size_t size() const CONDSEL_EXCLUDES(mu_);
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void ResetCounters();

 private:
  mutable OrderedMutex mu_{lock_rank::kCardinalityCache,
                           "CardinalityCache::mu_"};
  std::map<std::vector<Predicate>, double> cache_ CONDSEL_GUARDED_BY(mu_);
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace condsel
