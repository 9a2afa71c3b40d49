#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <mutex>

namespace demo {

// The exempt member shapes next to a mutex: an atomic, a second mutex
// (which opens its own guarded scope), and an allow-marked member.
class Cache {
 private:
  mutable std::mutex mu_;
  std::map<int, double> entries_ CONDSEL_GUARDED_BY(mu_);
  std::atomic<int> hits_{0};
  std::mutex log_mu_;
  std::deque<int> log_ CONDSEL_GUARDED_BY(log_mu_);
  // Append-only; readers are bounded by the release store to hits_.
  // condsel: allow(guarded-field)
  std::deque<int> history_;
};

}  // namespace demo
