// Gated replacement of the global allocation functions.
//
// Only operator new(size_t) and operator new(size_t, align_val_t) are
// replaced: the standard specifies that the array and nothrow forms call
// them by default, so all eight forms reach the counter.
// AllocHookSelfTest() checks that claim at start-up against the running
// standard library. The matching deletes are replaced so memory from
// malloc/posix_memalign is always released with free.

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace condsel {
namespace bench_suite {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_count{0};

inline void Count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_count.load(std::memory_order_relaxed); }

const char* AllocHookSelfTest() {
  struct Probe {
    const char* name;
    void* (*alloc)();
    void (*free)(void*);
  };
  // Direct operator calls, not new-expressions: the compiler may elide a
  // paired new/delete expression, which would make the probe vacuous.
  static const Probe kProbes[] = {
      {"operator new", []() { return ::operator new(32); },
       [](void* p) { ::operator delete(p); }},
      {"operator new[]", []() { return ::operator new[](32); },
       [](void* p) { ::operator delete[](p); }},
      {"operator new(nothrow)",
       []() { return ::operator new(32, std::nothrow); },
       [](void* p) { ::operator delete(p, std::nothrow); }},
      {"operator new[](nothrow)",
       []() { return ::operator new[](32, std::nothrow); },
       [](void* p) { ::operator delete[](p, std::nothrow); }},
      {"operator new(align)",
       []() { return ::operator new(64, std::align_val_t{64}); },
       [](void* p) { ::operator delete(p, std::align_val_t{64}); }},
      {"operator new[](align)",
       []() { return ::operator new[](64, std::align_val_t{64}); },
       [](void* p) { ::operator delete[](p, std::align_val_t{64}); }},
      {"operator new(align, nothrow)",
       []() {
         return ::operator new(64, std::align_val_t{64}, std::nothrow);
       },
       [](void* p) {
         ::operator delete(p, std::align_val_t{64}, std::nothrow);
       }},
      {"operator new[](align, nothrow)",
       []() {
         return ::operator new[](64, std::align_val_t{64}, std::nothrow);
       },
       [](void* p) {
         ::operator delete[](p, std::align_val_t{64}, std::nothrow);
       }},
  };
  const bool was_on = g_counting.load(std::memory_order_relaxed);
  SetAllocCounting(true);
  const char* missed = nullptr;
  for (const Probe& probe : kProbes) {
    const uint64_t before = AllocCount();
    void* p = probe.alloc();
    const bool counted = AllocCount() > before;
    if (p != nullptr) probe.free(p);
    if (p == nullptr || !counted) {
      missed = probe.name;
      break;
    }
  }
  SetAllocCounting(was_on);
  return missed;
}

}  // namespace bench_suite
}  // namespace condsel

void* operator new(std::size_t size) {
  condsel::bench_suite::Count();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  condsel::bench_suite::Count();
  // posix_memalign needs alignment >= sizeof(void*); align_val_t is a
  // power of two by construction.
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
