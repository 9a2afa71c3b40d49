#include "condsel/selectivity/decomposer.h"

#include "condsel/common/macros.h"

namespace condsel {

CONDSEL_HOT void AtomicFactorCandidatesInto(const Query& query, PredSet p,
                                            const Deadline* deadline,
                                            bool* truncated,
                                            ArenaVector<PredSet>* out) {
  if (truncated != nullptr) *truncated = false;
  auto expired = [&] {
    if (deadline == nullptr || !deadline->Expired()) return false;
    if (truncated != nullptr) *truncated = true;
    return true;
  };

  const PredSet filters = p & query.filter_predicates();
  const PredSet joins = p & query.join_predicates();
  for (int i : SetBits(filters)) out->Append(1u << i);
  // Filter pairs (approximable by multidimensional SITs).
  for (int a : SetBits(filters)) {
    if (expired()) return;
    for (int b : SetBits(filters & ~((2u << a) - 1u))) {
      out->Append((1u << a) | (1u << b));
    }
  }
  for (int i : SetBits(joins)) out->Append(1u << i);
  for (int j : SetBits(joins)) {
    if (expired()) return;
    // Every non-empty combination of P's filters over the join's columns,
    // in increasing mask order.
    const PredSet attached = query.filters_on_join(j) & p;
    for (PredSet combo = NextSubmask(attached, 0); combo != 0;
         combo = NextSubmask(attached, combo)) {
      // The deadline gate inside the exponential fan-out: without it a
      // join with many attached filters could spend 2^nf enumeration
      // steps after the clock ran out.
      if (expired()) return;
      out->Append(With(combo, j));
    }
  }
}

}  // namespace condsel
