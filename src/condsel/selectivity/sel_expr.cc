#include "condsel/selectivity/sel_expr.h"

namespace condsel {

bool IsChainDecomposition(PredSet full, const Decomposition& d) {
  PredSet remaining = full;
  for (size_t i = 0; i < d.size(); ++i) {
    const Factor& f = d[i];
    if (f.p == 0) return false;
    if (!IsSubset(f.p, remaining)) return false;
    if (f.q != (remaining & ~f.p)) return false;
    remaining &= ~f.p;
  }
  return remaining == 0;
}

std::string FactorToString(const Query& query, const Factor& f) {
  std::string s = "Sel(";
  bool first = true;
  for (int i : SetElements(f.p)) {
    if (!first) s += ", ";
    s += query.predicate(i).ToString();
    first = false;
  }
  if (f.q != 0) {
    s += " | ";
    first = true;
    for (int i : SetElements(f.q)) {
      if (!first) s += ", ";
      s += query.predicate(i).ToString();
      first = false;
    }
  }
  s += ")";
  return s;
}

}  // namespace condsel
