#include "condsel/selectivity/separability.h"

#include "condsel/query/join_graph.h"

namespace condsel {

bool IsSeparableSel(const Query& query, PredSet p, PredSet cond) {
  return IsSeparable(query, p | cond);
}

ComponentList StandardDecompositionFast(const Query& query, PredSet p) {
  return ConnectedComponents(query, p);
}

}  // namespace condsel
