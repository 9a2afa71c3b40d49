// Global lock-order ranks.
//
// Every rank-checked mutex in the library (common/ordered_mutex.h) is
// constructed with one of these constants. The rule: a thread may only
// acquire a mutex whose (rank, address) pair is lexicographically greater
// than that of the last mutex it already holds — lower ranks are outer,
// higher ranks are inner. Two mutexes share a rank only when they are
// instances of the same multi-instance family, in which case address
// order disambiguates.
//
// This table is mirrored by tools/lock_order.toml; tools/condsel_model.py
// fails the build if the two drift apart or if any acquisition edge in
// the source contradicts the order declared here. To add a mutex: pick a
// rank consistent with every path that nests it, add the constant here,
// add a [[mutex]] entry to tools/lock_order.toml, and construct the
// OrderedMutex with both.

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
// service/: epoch ledger; innermost of the snapshot pair and the
// designated "acquire path" lock of the blocking-reachability check.
inline constexpr int kSnapshotEpoch = 30;
// service/: feedback application takes jitter + cache locks inside it.
inline constexpr int kServiceFeedback = 40;
inline constexpr int kServiceJitter = 50;
// service/: per-tenant circuit breaker ladder.
inline constexpr int kCircuitBreaker = 60;
// service/: GsStats aggregation ledger.
inline constexpr int kGsStatsLedger = 70;
// exec/: cardinality feedback cache; locked under kServiceFeedback via
// EstimationService::ObserveFeedback.
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
