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

  for (int i : SetBits(p)) {
    if (query.predicate(i).is_filter()) {
      out->Append(1u << i);
    }
  }
  // Filter pairs (approximable by multidimensional SITs).
  {
    const PredSet filters = p & query.filter_predicates();
    for (int a : SetBits(filters)) {
      if (expired()) return;
      for (int b : SetBits(filters & ~((2u << a) - 1u))) {
        out->Append((1u << a) | (1u << b));
      }
    }
  }
  for (int i : SetBits(p)) {
    if (query.predicate(i).is_join()) out->Append(1u << i);
  }
  for (int j : SetBits(p)) {
    if (!query.predicate(j).is_join()) continue;
    if (expired()) return;
    const Predicate& join = query.predicate(j);
    // Filters of P over the join's columns. At most kMaxPredicates of
    // them — a stack array, like every other per-subset scratch here.
    int attached[kMaxPredicates];
    int nf = 0;
    for (int f : SetBits(p)) {
      if (f == j || !query.predicate(f).is_filter()) continue;
      const ColumnRef c = query.predicate(f).column();
      if (c == join.left() || c == join.right()) attached[nf++] = f;
    }
    for (uint32_t m = 1; m < (1u << nf); ++m) {
      // The deadline gate inside the exponential fan-out: without it a
      // join with many attached filters could spend 2^nf enumeration
      // steps after the clock ran out.
      if (expired()) return;
      PredSet combo = 1u << j;
      for (int b = 0; b < nf; ++b) {
        if (Contains(m, b)) {
          combo = With(combo, attached[b]);
        }
      }
      out->Append(combo);
    }
  }
}

}  // namespace condsel
