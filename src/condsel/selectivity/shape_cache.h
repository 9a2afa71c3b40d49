// ShapeCache — decomposition skeletons keyed by canonical SPJ shape.
//
// Atomic-factor candidate enumeration (decomposer.h) is a pure function
// of a query's *structure*: which predicate positions are filters vs
// joins, and the pattern of column identities that attaches filters to a
// join's columns and wires the join graph together. Constants, operators,
// and the concrete table/column names never enter it. Two statements that
// differ only in constants — the classic parameterized-query workload —
// therefore share every candidate list, subset for subset.
//
// CanonicalShapeKey() encodes that structure with tables and columns
// renamed in first-appearance order over the ordered predicate list, so
// structurally identical statements collapse to one key. ShapeCache maps
// the key to a shared Entry whose per-subset candidate lists fill lazily
// as estimators enumerate; later estimators (a service's per-attempt
// sessions, a prewarmed workload's repeats) copy the skeleton instead of
// re-running the enumeration.
//
// Invalidation: none needed. The skeleton holds no statistics — snapshot
// epochs and pool generations (which do invalidate SelectivityMemo, see
// BindGeneration) leave it untouched, because candidate lists cannot
// change unless the statement's structure does, and a different structure
// is a different key.
//
// Correctness gates: a list is stored only when its enumeration ran to
// completion (never from a deadline-truncated pass), so a cached copy is
// bit-for-bit the list a fresh enumeration would produce and the
// estimator-equivalence property is preserved.
//
// Thread-safety: the registry map and each Entry carry their own
// reader/writer locks (ranks kShapeCache / kShapeEntry); entries are
// handed out as shared_ptr so a shape outlives any estimator using it.

#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "condsel/common/arena.h"
#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/thread_annotations.h"
#include "condsel/query/query.h"

namespace condsel {

// Canonical structural encoding of `query` (tables/columns renamed in
// first-appearance order): equal keys <=> identical candidate lists for
// every predicate subset.
std::string CanonicalShapeKey(const Query& query);

class ShapeCache {
 public:
  // One statement shape's lazily filled decomposition skeleton.
  class Entry {
   public:
    // Copies the cached candidate list for `p` into `out` (arena-backed,
    // cleared first). Returns false on a cold subset.
    bool CopyCandidates(PredSet p, ArenaVector<PredSet>* out) const
        CONDSEL_EXCLUDES(mu_);

    // Stores the list for `p` (first-wins; concurrent writers compute
    // identical lists, so which copy lands is unobservable). Callers must
    // only store lists from enumeration passes that ran to completion —
    // never deadline-truncated ones.
    void StoreCandidates(PredSet p, const ArenaVector<PredSet>& candidates)
        CONDSEL_EXCLUDES(mu_);

    size_t cached_subsets() const CONDSEL_EXCLUDES(mu_);

   private:
    mutable OrderedSharedMutex mu_{lock_rank::kShapeEntry,
                                   "ShapeCache::Entry::mu_"};
    std::unordered_map<PredSet, std::vector<PredSet>> nodes_
        CONDSEL_GUARDED_BY(mu_);
  };

  // The entry for `query`'s shape, created on first sight. The handle
  // stays valid independently of the cache's lifetime.
  std::shared_ptr<Entry> Acquire(const Query& query) CONDSEL_EXCLUDES(mu_);

  size_t shapes() const CONDSEL_EXCLUDES(mu_);

 private:
  mutable OrderedSharedMutex mu_{lock_rank::kShapeCache, "ShapeCache::mu_"};
  std::unordered_map<std::string, std::shared_ptr<Entry>> shapes_
      CONDSEL_GUARDED_BY(mu_);
};

}  // namespace condsel
