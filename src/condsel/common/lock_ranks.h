// Global lock-order ranks.
//
// Every rank-checked mutex in the library (common/ordered_mutex.h) is
// constructed with one of these constants. The rule: a thread may only
// acquire a mutex whose (rank, address) pair is lexicographically greater
// than that of the last mutex it already holds — lower ranks are outer,
// higher ranks are inner. Every constant ranks exactly one mutex: the
// address tie-break only orders two instances of one class, and
// condsel_model reports any nesting of a mutex inside itself as a
// lock-cycle.
//
// This table is the one declaration of the lock order. Each
// OrderedMutex construction site binds its label to one of these
// constants, and tools/condsel_model.py reads the ranks from here: it
// fails the build if a site names a constant this file lacks, if a
// constant is named by no site or by several, if two constants share a
// rank, or if any acquisition edge in the source contradicts the order.
// A `condsel: acquire-path` comment marks the lock sessions take to
// acquire a snapshot; nothing may block while holding a mutex from which
// it is reachable. To add a mutex: pick a rank consistent with every
// path that nests it, add the constant here, and construct the
// OrderedMutex with it and its "Class::member" label.

#pragma once

namespace condsel {
namespace lock_rank {

// service/: admission gate is the outermost lock a session path takes.
inline constexpr int kAdmission = 10;
// service/: delta-maintenance serialization; held across the part-stats
// rebuild and the publish that follows, so it nests outside the snapshot
// pair (sanctioned blocking, see service.cc).
inline constexpr int kPartMaintenance = 15;
// service/: snapshot refresh serialization; holds while building the
// next epoch (sanctioned blocking, see snapshot.cc).
inline constexpr int kSnapshotRefresh = 20;
// service/: epoch ledger and current-snapshot handle; innermost of the
// snapshot pair and the lock every session's Acquire() takes.
inline constexpr int kSnapshotEpoch = 30;  // condsel: acquire-path
// service/: backoff jitter stream.
inline constexpr int kServiceJitter = 50;
// service/: per-tenant circuit breaker ladder.
inline constexpr int kCircuitBreaker = 60;
// service/: GsStats aggregation ledger.
inline constexpr int kGsStatsLedger = 70;
// exec/: cardinality feedback cache.
inline constexpr int kCardinalityCache = 80;
// selectivity/: shape-keyed decomposition cache — the shape registry map
// (Acquire, off the hot path) and the per-shape skeleton entries (looked
// up mid-Compute). Never held together: Acquire releases the registry
// lock before any skeleton lock is taken, but the entry rank sits inside
// the registry's so a future nested acquisition would still be ordered.
inline constexpr int kShapeCache = 84;
inline constexpr int kShapeEntry = 86;
// common/: fault injector registry; leaf — nothing is acquired under it.
inline constexpr int kFaultInjector = 120;

}  // namespace lock_rank
}  // namespace condsel
