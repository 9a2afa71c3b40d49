#pragma once

#include <cstdint>
#include <memory>

#include "lock_ranks.h"

namespace demo {

class Publisher {
 public:
  void Publish(int payload);

 private:
  OrderedMutex epoch_mu_{lock_rank::kEpoch, "Publisher::epoch_mu_"};
  uint64_t next_epoch_ CONDSEL_GUARDED_BY(epoch_mu_) = 1;
  std::shared_ptr<const int> current_ CONDSEL_GUARDED_BY(epoch_mu_);
};

}  // namespace demo
