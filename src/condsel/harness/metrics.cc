#include "condsel/harness/metrics.h"

#include <algorithm>
#include <set>

#include "condsel/common/numeric.h"
#include "condsel/query/join_graph.h"

namespace condsel {

std::vector<PredSet> SubPlanFamily(const Query& query) {
  std::set<PredSet> plans;

  // Filters of the query on each table.
  auto filters_on_tables = [&](TableSet tables) {
    PredSet f = 0;
    for (int i : SetElements(query.filter_predicates())) {
      if (Contains(tables, query.predicate(i).column().table)) {
        f = With(f, i);
      }
    }
    return f;
  };

  // Single-table scan nodes (with their filters).
  for (int t : SetElements(query.tables())) {
    const PredSet f = filters_on_tables(1u << t);
    if (f != 0) plans.insert(f);
  }

  // Join nodes: each connected join subgraph, with applicable filters.
  for (PredSet joins :
       ConnectedSubsets(query, query.join_predicates(),
                        SetSize(query.join_predicates()))) {
    plans.insert(joins | filters_on_tables(query.TablesOfSubset(joins)));
  }

  std::vector<PredSet> out(plans.begin(), plans.end());
  std::sort(out.begin(), out.end(), [](PredSet a, PredSet b) {
    if (SetSize(a) != SetSize(b)) return SetSize(a) < SetSize(b);
    return a < b;
  });
  return out;
}

double CrossProductCardinality(const Catalog& catalog, const Query& query,
                               PredSet p) {
  double cross = 1.0;
  for (int t : SetElements(query.TablesOfSubset(p))) {
    cross = SaturatingMultiply(cross,
                               static_cast<double>(catalog.table(t).num_rows()));
  }
  return cross;
}

double CardinalityFromSelectivity(const Catalog& catalog, const Query& query,
                                  PredSet p, double selectivity) {
  return SanitizeCardinality(selectivity *
                             CrossProductCardinality(catalog, query, p));
}

}  // namespace condsel
