#include "condsel/exec/evaluator.h"

#include <unordered_map>

#include "condsel/common/macros.h"
#include "condsel/query/join_graph.h"

namespace condsel {

int JoinResult::TableSlot(TableId t) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == t) return static_cast<int>(i);
  }
  return -1;
}

Evaluator::Evaluator(const Catalog* catalog, CardinalityCache* cache)
    : catalog_(catalog), cache_(cache) {
  CONDSEL_CHECK(catalog != nullptr);  // invariant: constructor contract
}

std::vector<uint32_t> Evaluator::FilteredRows(
    const Query& q, PredSet filters, TableId table,
    const RowRestriction* restriction) const {
  const Table& t = catalog_->table(table);
  // Collect the filters that apply to this table.
  std::vector<const Predicate*> preds;
  for (int i : SetElements(filters)) {
    const Predicate& p = q.predicate(i);
    if (p.is_filter() && p.column().table == table) preds.push_back(&p);
  }
  size_t begin = 0;
  size_t end = t.num_rows();
  if (restriction != nullptr && restriction->table == table) {
    begin = restriction->begin;
    end = restriction->end;
    CONDSEL_CHECK(begin <= end && end <= t.num_rows());  // invariant
  }
  std::vector<uint32_t> rows;
  rows.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    bool ok = true;
    for (const Predicate* p : preds) {
      const int64_t v = t.value(r, p->column().column);
      if (IsNull(v) || v < p->lo() || v > p->hi()) {
        ok = false;
        break;
      }
    }
    if (ok) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

JoinResult Evaluator::EvaluateComponent(const Query& q, PredSet component,
                                        const RowRestriction* restriction) {
  JoinResult result;
  CONDSEL_CHECK(component != 0);  // invariant: caller passes components

  const std::vector<int> table_ids = SetElements(TablesOf(q.predicates(), component));
  CONDSEL_CHECK(!table_ids.empty());  // invariant: components touch tables

  // Per-table filtered row lists.
  std::unordered_map<TableId, std::vector<uint32_t>> live;
  for (int t : table_ids) {
    live[t] = FilteredRows(q, component, static_cast<TableId>(t), restriction);
  }

  // Collect the component's join predicates.
  std::vector<int> join_preds;
  for (int i : SetElements(component)) {
    if (q.predicate(i).is_join()) join_preds.push_back(i);
  }

  if (table_ids.size() == 1) {
    // invariant: a one-table component cannot carry a join.
    CONDSEL_CHECK(join_preds.empty());
    const TableId t = table_ids[0];
    result.tables = {t};
    result.tuple_rows = live[t];
    result.num_tuples = result.tuple_rows.size();
    return result;
  }

  // Start from the table with the fewest live rows to keep intermediates
  // small; the component's tables are join-connected, so we can always
  // extend with a join predicate that has exactly one side joined already.
  TableId start = table_ids[0];
  for (int t : table_ids) {
    if (live[t].size() < live[start].size()) start = t;
  }
  result.tables = {start};
  result.tuple_rows = live[start];
  result.num_tuples = result.tuple_rows.size();

  std::vector<bool> used(join_preds.size(), false);
  size_t remaining = join_preds.size();
  while (remaining > 0) {
    // Find an unused join with exactly one side already in the result, or
    // with both sides in the result (a cycle edge, applied as a filter).
    int pick = -1;
    bool pick_is_cycle = false;
    for (size_t k = 0; k < join_preds.size(); ++k) {
      if (used[k]) continue;
      const Predicate& p = q.predicate(join_preds[k]);
      const bool l_in = result.TableSlot(p.left().table) >= 0;
      const bool r_in = result.TableSlot(p.right().table) >= 0;
      if (l_in && r_in) {
        pick = static_cast<int>(k);
        pick_is_cycle = true;
        break;
      }
      if (l_in != r_in) {
        pick = static_cast<int>(k);
        pick_is_cycle = false;
        // Keep scanning in case a cycle edge exists (cheaper to apply).
      }
    }
    // invariant: ConnectedComponents only emits connected subsets.
    CONDSEL_CHECK_MSG(pick >= 0, "join component not connected");
    const Predicate& p = q.predicate(join_preds[static_cast<size_t>(pick)]);
    used[static_cast<size_t>(pick)] = true;
    --remaining;

    const size_t width = result.tables.size();
    if (pick_is_cycle) {
      // Both sides are joined already: filter existing tuples.
      const int ls = result.TableSlot(p.left().table);
      const int rs = result.TableSlot(p.right().table);
      const Table& lt = catalog_->table(p.left().table);
      const Table& rt = catalog_->table(p.right().table);
      std::vector<uint32_t> kept;
      kept.reserve(result.tuple_rows.size());
      for (size_t i = 0; i < result.num_tuples; ++i) {
        const uint32_t* tup = &result.tuple_rows[i * width];
        const int64_t lv = lt.value(tup[ls], p.left().column);
        const int64_t rv = rt.value(tup[rs], p.right().column);
        if (!IsNull(lv) && lv == rv) {
          kept.insert(kept.end(), tup, tup + width);
        }
      }
      result.tuple_rows = std::move(kept);
      result.num_tuples = result.tuple_rows.size() / width;
      continue;
    }

    // Tree edge: hash-join the new table in.
    const bool left_in = result.TableSlot(p.left().table) >= 0;
    const ColumnRef probe_col = left_in ? p.left() : p.right();
    const ColumnRef build_col = left_in ? p.right() : p.left();
    const Table& build_table = catalog_->table(build_col.table);

    std::unordered_map<int64_t, std::vector<uint32_t>> hash;
    hash.reserve(live[build_col.table].size());
    for (uint32_t r : live[build_col.table]) {
      const int64_t v = build_table.value(r, build_col.column);
      if (!IsNull(v)) hash[v].push_back(r);
    }

    const Table& probe_table = catalog_->table(probe_col.table);
    const int probe_slot = result.TableSlot(probe_col.table);
    std::vector<uint32_t> out;
    for (size_t i = 0; i < result.num_tuples; ++i) {
      const uint32_t* tup = &result.tuple_rows[i * width];
      const int64_t v =
          probe_table.value(tup[static_cast<size_t>(probe_slot)],
                            probe_col.column);
      if (IsNull(v)) continue;
      auto it = hash.find(v);
      if (it == hash.end()) continue;
      for (uint32_t match : it->second) {
        out.insert(out.end(), tup, tup + width);
        out.push_back(match);
      }
    }
    result.tables.push_back(build_col.table);
    result.tuple_rows = std::move(out);
    result.num_tuples = result.tuple_rows.size() / result.tables.size();
  }
  return result;
}

StatusOr<double> Evaluator::TryCardinality(const Query& q, PredSet subset) {
  if ((subset & ~q.all_predicates()) != 0) {
    return Status::InvalidArgument(
        "subset selects predicates the query does not have");
  }
  for (int i : SetElements(subset)) {
    for (const ColumnRef& c : q.predicate(i).attrs()) {
      if (!catalog_->HasColumn(c)) {
        return Status::InvalidArgument(
            "predicate " + std::to_string(i) +
            " references a column outside the catalog");
      }
    }
  }
  return Cardinality(q, subset);
}

StatusOr<double> Evaluator::TryTrueSelectivity(const Query& q, PredSet p) {
  StatusOr<double> card = TryCardinality(q, p);
  if (!card.ok()) return card;
  if (p == 0) return 1.0;
  const std::vector<int> tables = SetElements(q.TablesOfSubset(p));
  double cross = 1.0;
  for (int t : tables) {
    cross *= static_cast<double>(catalog_->table(t).num_rows());
  }
  if (cross == 0.0) return 0.0;
  return *card / cross;
}

double Evaluator::Cardinality(const Query& q, PredSet subset) {
  if (subset == 0) return 1.0;
  double card = 1.0;
  for (PredSet comp : ConnectedComponents(q, subset)) {
    const std::vector<Predicate> key = q.CanonicalSubset(comp);
    if (cache_ != nullptr) {
      if (const double* cached = cache_->Lookup(key)) {
        card *= *cached;
        continue;
      }
    }
    const double comp_card =
        static_cast<double>(EvaluateComponent(q, comp).num_tuples);
    if (cache_ != nullptr) cache_->Insert(key, comp_card);
    card *= comp_card;
  }
  return card;
}

double Evaluator::TrueSelectivity(const Query& q, PredSet p) {
  if (p == 0) return 1.0;
  const std::vector<int> tables = SetElements(q.TablesOfSubset(p));
  double cross = 1.0;
  for (int t : tables) {
    cross *= static_cast<double>(catalog_->table(t).num_rows());
  }
  if (cross == 0.0) return 0.0;
  return Cardinality(q, p) / cross;
}

double Evaluator::TrueConditionalSelectivity(const Query& q, PredSet p,
                                             PredSet q_set) {
  // Sel_R(P|Q) = card(P ∪ Q) / (card(Q) * |tables(P∪Q) - tables(Q)|^x).
  // The extra-table factor accounts for tables P introduces, which are
  // unconstrained in the denominator's cross product.
  const PredSet pq = p | q_set;
  if (p == 0) return 1.0;
  const double denom_card = Cardinality(q, q_set);
  if (denom_card == 0.0) return 0.0;
  const TableSet extra = q.TablesOfSubset(pq) & ~q.TablesOfSubset(q_set);
  double extra_cross = 1.0;
  for (int t : SetElements(extra)) {
    extra_cross *= static_cast<double>(catalog_->table(t).num_rows());
  }
  if (extra_cross == 0.0) return 0.0;
  return Cardinality(q, pq) / (denom_card * extra_cross);
}

}  // namespace condsel
