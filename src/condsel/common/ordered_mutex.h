// Rank-checked mutex wrappers: the runtime half of the concurrency
// contract (the static half is tools/condsel_model.py).
//
// OrderedMutex / OrderedSharedMutex behave exactly like std::mutex /
// std::shared_mutex, but each instance carries a rank from
// common/lock_ranks.h and a "Class::member" label naming it in reports.
// When enforcement is on, every acquisition is checked against a
// thread-local stack of held locks: the new lock's (rank, address) must
// be lexicographically greater than the top of the stack. A violation
// aborts with both mutex names and ranks — turning a would-be deadlock
// that TSan can only catch when two threads actually interleave into a
// deterministic failure on any single-threaded traversal of the bad path.
//
// Enforcement defaults on in !NDEBUG builds and can be forced either way
// with CONDSEL_LOCK_ORDER=1 / CONDSEL_LOCK_ORDER=0 in the environment
// (the TSan CI job and tests/lock_order_test.cc force it on). When off,
// the wrappers compile down to a forwarded lock/unlock with one relaxed
// atomic load on the acquire path.

#pragma once

#include <cstdint>
#include <mutex>
#include <shared_mutex>

namespace condsel {

namespace lock_order_internal {

// True when rank checking is active (memoized on first use).
bool Enabled();

// Test hook: overrides the environment/NDEBUG default. Passing
// `enabled` switches enforcement for every thread from the next
// acquisition on; only tests call this.
void ForceEnabledForTesting(bool enabled);

// Number of acquisition-order checks actually performed, process-wide.
// The soak test asserts this advanced, proving enforcement was live.
std::uint64_t checks_performed();

// Called by the wrappers around each acquire/release. `addr` is the
// wrapper's address (identity for same-rank instances).
void NoteAcquire(const void* addr, int rank, const char* name);
void NoteRelease(const void* addr);

}  // namespace lock_order_internal

// Exclusive rank-checked mutex. Satisfies Lockable, so it works with
// std::lock_guard, std::unique_lock, std::scoped_lock and
// std::condition_variable_any.
class OrderedMutex {
 public:
  OrderedMutex(int rank, const char* name) : rank_(rank), name_(name) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
    lock_order_internal::NoteAcquire(this, rank_, name_);
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    // A successful try_lock must still respect the order: a reverse-
    // order try_lock spins against a holder that waits forever.
    lock_order_internal::NoteAcquire(this, rank_, name_);
    return true;
  }
  void unlock() {
    mu_.unlock();
    lock_order_internal::NoteRelease(this);
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

// Shared (reader/writer) rank-checked mutex. Shared acquisitions are
// order-checked exactly like exclusive ones: a reader that blocks behind
// a writer participates in deadlock cycles all the same.
class OrderedSharedMutex {
 public:
  OrderedSharedMutex(int rank, const char* name)
      : rank_(rank), name_(name) {}
  OrderedSharedMutex(const OrderedSharedMutex&) = delete;
  OrderedSharedMutex& operator=(const OrderedSharedMutex&) = delete;

  void lock() {
    lock_order_internal::NoteAcquire(this, rank_, name_);
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    lock_order_internal::NoteAcquire(this, rank_, name_);
    return true;
  }
  void unlock() {
    mu_.unlock();
    lock_order_internal::NoteRelease(this);
  }

  void lock_shared() {
    lock_order_internal::NoteAcquire(this, rank_, name_);
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
    lock_order_internal::NoteAcquire(this, rank_, name_);
    return true;
  }
  void unlock_shared() {
    mu_.unlock_shared();
    lock_order_internal::NoteRelease(this);
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

}  // namespace condsel
