#include "condsel/query/join_graph.h"

#include <bit>

#include "condsel/common/macros.h"

namespace condsel {

UnionFind::UnionFind(int n) : parent_(static_cast<size_t>(n)) {
  for (int i = 0; i < n; ++i) parent_[static_cast<size_t>(i)] = i;
}

int UnionFind::Find(int x) {
  while (parent_[static_cast<size_t>(x)] != x) {
    parent_[static_cast<size_t>(x)] =
        parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    x = parent_[static_cast<size_t>(x)];
  }
  return x;
}

void UnionFind::Union(int a, int b) {
  const int ra = Find(a), rb = Find(b);
  if (ra != rb) parent_[static_cast<size_t>(ra)] = rb;
}

ComponentList ConnectedComponents(const Query& query, PredSet subset) {
  ComponentList out;
  // Seed each component at the lowest predicate not yet placed, which
  // orders components by lowest index, and grow it through neighbour
  // masks restricted to the subset until no frontier is left.
  for (PredSet rest = subset; rest != 0;) {
    PredSet comp = rest & (0u - rest);
    for (PredSet frontier = comp; frontier != 0;) {
      const int i = std::countr_zero(frontier);
      frontier &= frontier - 1u;
      const PredSet grown = query.neighbors(i) & rest & ~comp;
      comp |= grown;
      frontier |= grown;
    }
    out.comps[out.count++] = comp;
    rest &= ~comp;
  }
  return out;
}

bool IsSeparable(const Query& query, PredSet subset) {
  return ConnectedComponents(query, subset).count >= 2;
}

std::vector<PredSet> ConnectedSubsets(const Query& query, PredSet candidates,
                                      int max_size) {
  std::vector<PredSet> out;
  const std::vector<int> elems = SetElements(candidates);
  const int n = static_cast<int>(elems.size());
  CONDSEL_CHECK(n <= 20);
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (SetSize(mask) > max_size) continue;
    PredSet subset = 0;
    for (int b = 0; b < n; ++b) {
      if (Contains(mask, b)) {
        subset = With(subset, elems[static_cast<size_t>(b)]);
      }
    }
    if (ConnectedComponents(query, subset).count == 1) {
      out.push_back(subset);
    }
  }
  return out;
}

bool JoinsConnectTables(const std::vector<Predicate>& preds, PredSet subset) {
  const TableSet tables = TablesOf(preds, subset);
  if (tables == 0) return true;
  UnionFind uf(kMaxPredicates);
  for (int i : SetBits(subset)) {
    const Predicate& p = preds[static_cast<size_t>(i)];
    if (p.is_join()) uf.Union(p.left().table, p.right().table);
  }
  const int first = std::countr_zero(tables);
  for (int t : SetBits(tables)) {
    if (!uf.Connected(first, t)) return false;
  }
  return true;
}

}  // namespace condsel
