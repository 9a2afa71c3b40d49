#include <mutex>

namespace demo {

// Seeded annotation gap, .cc variant: a function-scope static following a
// static mutex with no CONDSEL_GUARDED_BY, so guarded-field must flag it.
int NextTicket() {
  static std::mutex mu;
  static int next_ticket = 0;
  const std::lock_guard<std::mutex> lock(mu);
  return next_ticket++;
}

}  // namespace demo
