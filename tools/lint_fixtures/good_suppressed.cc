// Fixture: explicit suppressions must silence each rule. Zero findings.
// lint-fixture-path: src/condsel/exec/good_suppressed.cc

#include "condsel/common/macros.h"
#include "condsel/common/status.h"

// condsel: allow(include-hygiene)
#include <iostream>

namespace condsel {

StatusOr<int> Checked(int v) {
  // condsel: allow(check-justified)
  CONDSEL_CHECK(v != 3);
  return v;
}

}  // namespace condsel
