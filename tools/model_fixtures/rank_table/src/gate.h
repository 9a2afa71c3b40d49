#pragma once

#include "lock_ranks.h"

namespace demo {

class Gate {
 private:
  OrderedMutex mu_{lock_rank::kGate, "Gate::mu_"};
  int open_ CONDSEL_GUARDED_BY(mu_) = 0;
  OrderedMutex journal_mu_{lock_rank::kJournal, "Gate::journal_mu_"};
  int entries_ CONDSEL_GUARDED_BY(journal_mu_) = 0;
};

}  // namespace demo
