#include "demo.h"

#include <mutex>

namespace demo {

// Seeded out-of-order acquisition: second_mu_ (rank 20) is held while
// first_mu_ (rank 10) is acquired, inverting the lock_ranks.h order.
void Demo::Update() {
  const std::lock_guard<OrderedMutex> outer(second_mu_);
  const std::lock_guard<OrderedMutex> inner(first_mu_);
}

}  // namespace demo
