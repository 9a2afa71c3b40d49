#include "demo.h"

#include <mutex>

namespace demo {

// Seeded out-of-order acquisition one call away: Run holds outer_mu_
// (rank 20) and calls Touch, which takes inner_mu_ (rank 10). No single
// function nests the two locks; only the call-graph edge through Touch
// shows the inversion.
void Outer::Run() {
  const std::lock_guard<OrderedMutex> lock(outer_mu_);
  inner_->Touch();
}

void Inner::Touch() {
  const std::lock_guard<OrderedMutex> lock(inner_mu_);
  ++touches_;
}

}  // namespace demo
