#include "condsel/service/snapshot.h"

#include <chrono>
#include <thread>
#include <utility>

#include "condsel/common/fault_injector.h"

namespace condsel {

StatusOr<uint64_t> SnapshotPublisher::Publish(
    Catalog catalog, std::shared_ptr<const SitPool> pool) {
  // Writers serialize end-to-end: two concurrent refreshes must not
  // interleave their epoch numbering with their pointer swaps, or a
  // lower-numbered snapshot could overwrite a higher one.
  const std::lock_guard<OrderedMutex> refresh_lock(refresh_mu_);

  const FaultInjector& fi = FaultInjector::Instance();
  if (fi.armed() && fi.enabled(Fault::kSlowRefresh)) {
    // A slow statistics rebuild. Deliberately *outside* epoch_mu_: the
    // stall must only delay other refreshes, never a session's acquire.
    // Only other refreshes ever wait on refresh_mu_, and delaying them
    // is this lock's documented purpose, hence:
    // condsel: allow(blocking-reachable)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (fi.armed() && fi.enabled(Fault::kFailSnapshotSwap)) {
    failed_swaps_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(
        "snapshot swap failed mid-refresh (injected); previous epoch "
        "remains current");
  }

  // Construct the snapshot before touching epoch state; only the number,
  // the ledger append, and the pointer swap happen under epoch_mu_.
  uint64_t epoch = 0;
  {
    const std::lock_guard<OrderedMutex> lock(epoch_mu_);
    epoch = next_epoch_++;
  }
  // Snapshot construction under refresh_mu_ is the refresh lock's whole
  // job; epoch_mu_ itself is NOT held here — the scoped blocks above and
  // below hold it only for a counter bump and a pointer swap, hence:
  // condsel: allow(blocking-reachable)
  auto snap = std::make_shared<const Snapshot>(epoch, std::move(catalog),
                                               std::move(pool));
  // Swapped out under epoch_mu_ but released after it: when no session
  // still pins the old epoch, freeing its catalog and pool stalls no
  // Acquire().
  std::shared_ptr<const Snapshot> previous;
  {
    const std::lock_guard<OrderedMutex> lock(epoch_mu_);
    ledger_.emplace_back(epoch, snap);
    previous = std::exchange(current_, std::move(snap));
  }
  published_count_.fetch_add(1, std::memory_order_relaxed);
  return epoch;
}

uint64_t SnapshotPublisher::current_epoch() const {
  const std::shared_ptr<const Snapshot> snap = Acquire();
  return snap == nullptr ? 0 : snap->epoch();
}

size_t SnapshotPublisher::live_epochs() const {
  const std::lock_guard<OrderedMutex> lock(epoch_mu_);
  size_t live = 0;
  auto it = ledger_.begin();
  while (it != ledger_.end()) {
    if (it->second.expired()) {
      it = ledger_.erase(it);  // retired: last holder dropped its handle
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

}  // namespace condsel
