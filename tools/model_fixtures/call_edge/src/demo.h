#pragma once

#include "lock_ranks.h"

namespace demo {

class Inner {
 public:
  void Touch();

 private:
  OrderedMutex inner_mu_{lock_rank::kInner, "Inner::inner_mu_"};
  int touches_ CONDSEL_GUARDED_BY(inner_mu_) = 0;
};

class Outer {
 public:
  void Run();

 private:
  OrderedMutex outer_mu_{lock_rank::kOuter, "Outer::outer_mu_"};
  Inner* inner_ CONDSEL_GUARDED_BY(outer_mu_) = nullptr;
};

}  // namespace demo
