#include "condsel/common/ordered_mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "condsel/common/macros.h"

namespace condsel {
namespace lock_order_internal {
namespace {

// -1 unresolved, 0 off, 1 on. Resolution order: ForceEnabledForTesting
// override, then CONDSEL_LOCK_ORDER=0/1, then on iff !NDEBUG.
std::atomic<int> g_enabled{-1};

std::atomic<std::uint64_t> g_checks{0};

int ResolveEnabled() {
  if (const char* env = std::getenv("CONDSEL_LOCK_ORDER")) {
    if (std::strcmp(env, "0") == 0) return 0;
    if (std::strcmp(env, "1") == 0) return 1;
  }
#ifdef NDEBUG
  return 0;
#else
  return 1;
#endif
}

struct HeldLock {
  const void* addr;
  int rank;
  const char* name;
};

// Per-thread stack of held rank-checked locks. Deep enough for any real
// path (the deepest sanctioned chain is 4); overflow aborts rather than
// silently dropping checks.
constexpr int kMaxHeld = 32;

struct HeldStack {
  HeldLock entries[kMaxHeld];
  int size = 0;
};

thread_local HeldStack t_held;

}  // namespace

bool Enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = ResolveEnabled();
    // Racing first-use threads compute the same value; any of them may
    // store it.
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void ForceEnabledForTesting(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t checks_performed() {
  return g_checks.load(std::memory_order_relaxed);
}

void NoteAcquire(const void* addr, int rank, const char* name) {
  if (!Enabled()) return;
  HeldStack& held = t_held;
  CONDSEL_CHECK_MSG(held.size < kMaxHeld,
                    "lock-order: held-lock stack overflow");
  g_checks.fetch_add(1, std::memory_order_relaxed);
  if (held.size > 0) {
    const HeldLock& top = held.entries[held.size - 1];
    // Lexicographic (rank, address): equal ranks are legal only for
    // distinct instances in ascending address order (multi-instance
    // families).
    const bool ordered =
        rank > top.rank || (rank == top.rank && addr > top.addr);
    if (!ordered) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "lock-order violation: acquiring \"%s\" (rank %d) "
                    "while holding \"%s\" (rank %d); see "
                    "tools/lock_order.toml",
                    name, rank, top.name, top.rank);
      CONDSEL_CHECK_MSG(false, msg);
    }
  }
  held.entries[held.size] = HeldLock{addr, rank, name};
  ++held.size;
}

void NoteRelease(const void* addr) {
  if (!Enabled()) return;
  HeldStack& held = t_held;
  // Releases are usually LIFO, but unique_lock allows out-of-order
  // release; drop the most recent entry for this address wherever it
  // sits. A release with no matching entry means enforcement was toggled
  // mid-hold (test hook); ignore it.
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].addr == addr) {
      for (int j = i; j + 1 < held.size; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.size;
      return;
    }
  }
}

}  // namespace lock_order_internal
}  // namespace condsel
