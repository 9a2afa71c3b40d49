#include "publisher.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

namespace demo {

// The sanctioned publish shape on an acquire-path lock: slow work and
// construction run with no lock held, and the epoch lock is taken only in
// scoped blocks for the counter bump and the pointer swap.
void Publisher::Publish(int payload) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    const std::lock_guard<OrderedMutex> lock(epoch_mu_);
    ++next_epoch_;
  }
  auto snap = std::make_shared<const int>(payload);
  {
    const std::lock_guard<OrderedMutex> lock(epoch_mu_);
    current_ = std::move(snap);
  }
}

}  // namespace demo
