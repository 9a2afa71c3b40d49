// Epoch-numbered immutable snapshots of catalog + SIT pool.
//
// The EstimationService never lets an estimate observe statistics that
// change under it: every Submit() pins one Snapshot — an immutable bundle
// of the catalog and its SIT pool, stamped with a monotonically increasing
// epoch — for the whole call. Refresh publishes a *new* snapshot by
// swapping the current handle; it never mutates a published one, so
// in-flight estimates keep reading their pinned epoch. An old epoch is
// retired (freed) only when the last session holding its shared_ptr drops
// it; the publisher's weak_ptr ledger makes the retirement observable
// (live_epochs()).
//
// Locking discipline: Publish serializes writers on refresh_mu_ — held
// across the (expensive) snapshot construction, which only other refreshes
// ever wait on — while epoch_mu_ guards just the epoch counter, the
// retirement ledger, and the current handle, which Publish swaps and every
// session's Acquire() copies under it. No blocking work (allocation of
// table data, statistics builds, sleeps, estimation) is ever done under
// epoch_mu_; condsel_model's blocking-reachable check enforces this
// (lock_ranks.h marks kSnapshotEpoch as the acquire-path lock), because
// one slow refresh holding the epoch lock would stall every session's
// acquire path — the exact overload-amplification failure the service
// exists to prevent.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/common/lock_ranks.h"
#include "condsel/common/ordered_mutex.h"
#include "condsel/common/status.h"
#include "condsel/common/thread_annotations.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

class Snapshot {
 public:
  Snapshot(uint64_t epoch, Catalog catalog,
           std::shared_ptr<const SitPool> pool)
      : epoch_(epoch),
        catalog_(std::move(catalog)),
        pool_(std::move(pool)),
        seal_(kSealMagic ^ epoch) {}

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  uint64_t epoch() const { return epoch_; }
  const Catalog& catalog() const { return catalog_; }
  const SitPool& pool() const { return *pool_; }

  // Torn-publication detector for the chaos soak: the seal is derived
  // from the epoch in the constructor, so any snapshot reachable through
  // Acquire() that was fully constructed verifies; a half-published one
  // (the bug class the locked swap exists to rule out) would not. The
  // soak test asserts this never fires across thousands of concurrent
  // acquire/swap interleavings.
  bool Coherent() const { return seal_ == (kSealMagic ^ epoch_); }

 private:
  static constexpr uint64_t kSealMagic = 0x5ea1c0de5ea1c0deull;

  const uint64_t epoch_;
  const Catalog catalog_;
  const std::shared_ptr<const SitPool> pool_;
  const uint64_t seal_;  // written last in the ctor init order
};

// Publishes snapshots and tracks epoch lifetimes.
class SnapshotPublisher {
 public:
  // Swaps in a new epoch built from `catalog` + `pool` (not null, and
  // shared, not copied). Respects the FaultInjector's kFailSnapshotSwap
  // (reports UNAVAILABLE, current epoch untouched) and kSlowRefresh
  // (stalls before taking any lock) hooks. Thread-safe; concurrent
  // publishers serialize, each gets its own epoch.
  StatusOr<uint64_t> Publish(Catalog catalog,
                             std::shared_ptr<const SitPool> pool)
      CONDSEL_EXCLUDES(epoch_mu_);

  // The current snapshot, or nullptr before the first successful Publish.
  // Copies the handle under epoch_mu_, which a refresh holds only for a
  // counter bump or a pointer swap, never across snapshot construction;
  // the returned handle pins its epoch until dropped.
  std::shared_ptr<const Snapshot> Acquire() const CONDSEL_EXCLUDES(epoch_mu_) {
    const std::lock_guard<OrderedMutex> lock(epoch_mu_);
    return current_;
  }

  // Epoch of the current snapshot (0 before the first Publish).
  uint64_t current_epoch() const;

  // Published epochs whose snapshot is still alive — pinned by at least
  // one outstanding handle or current. Retirement is refcount-driven:
  // this drops as sessions release old epochs, never before.
  size_t live_epochs() const CONDSEL_EXCLUDES(epoch_mu_);

  uint64_t published() const {
    return published_count_.load(std::memory_order_relaxed);
  }
  uint64_t failed_swaps() const {
    return failed_swaps_.load(std::memory_order_relaxed);
  }

 private:
  // Serializes whole refreshes; never taken by the estimate path.
  OrderedMutex refresh_mu_{lock_rank::kSnapshotRefresh,
                           "SnapshotPublisher::refresh_mu_"};
  mutable OrderedMutex epoch_mu_{lock_rank::kSnapshotEpoch,
                                 "SnapshotPublisher::epoch_mu_"};
  uint64_t next_epoch_ CONDSEL_GUARDED_BY(epoch_mu_) = 1;
  // Weak ledger of every published epoch, pruned as refcounts hit zero.
  mutable std::vector<std::pair<uint64_t, std::weak_ptr<const Snapshot>>>
      ledger_ CONDSEL_GUARDED_BY(epoch_mu_);
  // The published handle: swapped by Publish, copied by Acquire.
  std::shared_ptr<const Snapshot> current_ CONDSEL_GUARDED_BY(epoch_mu_);
  std::atomic<uint64_t> published_count_{0};
  std::atomic<uint64_t> failed_swaps_{0};
};

}  // namespace condsel
