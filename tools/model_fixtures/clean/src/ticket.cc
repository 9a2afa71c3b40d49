#include <atomic>
#include <cstdint>
#include <mutex>

namespace demo {

// The .cc static shapes: a GUARDED_BY on a static after a static mutex,
// and an atomic static that needs no lock at all.
int NextTicket() {
  static std::mutex mu;
  static int next_ticket CONDSEL_GUARDED_BY(mu) = 0;
  const std::lock_guard<std::mutex> lock(mu);
  return next_ticket++;
}

uint64_t NextSequence() {
  static std::atomic<uint64_t> seq{0};
  return seq.fetch_add(1);
}

}  // namespace demo
