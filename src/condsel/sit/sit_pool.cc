#include "condsel/sit/sit_pool.h"

#include <algorithm>
#include <set>

#include "condsel/common/macros.h"
#include "condsel/query/join_graph.h"

namespace condsel {

JoinFactorMemo::JoinFactorMemo() {
  for (int i = 0; i < kCapacity; ++i) {
    keys_[i].store(kEmpty, std::memory_order_relaxed);
    values_[i].store(kNoValue, std::memory_order_relaxed);
  }
}

SitPool::SitPool() : join_memo_(std::make_unique<JoinFactorMemo>()) {}

SitPool::SitPool(const SitPool& other)
    : sits_(other.sits_),
      index_(other.index_),
      join_memo_(std::make_unique<JoinFactorMemo>()) {}

SitId SitPool::Add(Sit sit) {
  std::sort(sit.expression.begin(), sit.expression.end());
  const auto key = std::make_tuple(sit.attr, sit.attr2, sit.expression);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  sit.id = static_cast<SitId>(sits_.size());
  index_.emplace(key, sit.id);
  sits_.push_back(std::move(sit));
  return sits_.back().id;
}

const Sit& SitPool::sit(SitId id) const {
  CONDSEL_CHECK(id >= 0 && id < size());
  return sits_[static_cast<size_t>(id)];
}

const Sit* SitPool::FindBase(ColumnRef col) const {
  auto it = index_.find(
      std::make_tuple(col, ColumnRef{}, std::vector<Predicate>{}));
  if (it == index_.end()) return nullptr;
  return &sits_[static_cast<size_t>(it->second)];
}

bool SitPool::Has(ColumnRef attr,
                  const std::vector<Predicate>& expression) const {
  std::vector<Predicate> sorted = expression;
  std::sort(sorted.begin(), sorted.end());
  return index_.count(std::make_tuple(attr, ColumnRef{}, sorted)) > 0;
}

bool SitSpec::References(TableId t) const {
  for (const Predicate& p : expression) {
    for (const ColumnRef& c : p.attrs()) {
      if (c.table == t) return true;
    }
  }
  return false;
}

std::vector<SitSpec> EnumerateSitSpecs(const std::vector<Query>& workload,
                                       int max_join_preds) {
  std::vector<SitSpec> specs;

  // Base histograms for every referenced column.
  std::set<ColumnRef> columns;
  for (const Query& q : workload) {
    for (const Predicate& p : q.predicates()) {
      for (const ColumnRef& c : p.attrs()) columns.insert(c);
    }
  }
  for (const ColumnRef& c : columns) {
    specs.push_back(SitSpec{c, {}});
  }
  if (max_join_preds == 0) return specs;

  // SIT(a | Q): a is a filter attribute of some query, Q a connected
  // subset of that query's join predicates reaching a's table. Grouped
  // by expression, so GenerateSitPool evaluates each expression once.
  std::map<std::vector<Predicate>, std::set<ColumnRef>> wanted;
  for (const Query& q : workload) {
    std::vector<ColumnRef> filter_attrs;
    for (int i : SetElements(q.filter_predicates())) {
      filter_attrs.push_back(q.predicate(i).column());
    }
    for (PredSet joins : ConnectedSubsets(q, q.join_predicates(),
                                          max_join_preds)) {
      const TableSet joined = q.TablesOfSubset(joins);
      const std::vector<Predicate> expr = q.CanonicalSubset(joins);
      for (const ColumnRef& a : filter_attrs) {
        if (!Contains(joined, a.table)) continue;
        wanted[expr].insert(a);
      }
    }
  }
  for (const auto& [expr, attr_set] : wanted) {
    for (const ColumnRef& a : attr_set) {
      specs.push_back(SitSpec{a, expr});
    }
  }
  return specs;
}

SitPool GenerateSitPool(const std::vector<Query>& workload,
                        int max_join_preds, const SitBuilder& builder) {
  SitPool pool;
  const std::vector<SitSpec> specs =
      EnumerateSitSpecs(workload, max_join_preds);
  BuildPass pass(builder.catalog());
  size_t i = 0;
  while (i < specs.size()) {
    const std::vector<Predicate>& expr = specs[i].expression;
    if (expr.empty()) {
      pool.Add(builder.Build(specs[i].attr, {}, &pass));
      ++i;
      continue;
    }
    // One BuildMany per run of specs sharing an expression.
    std::vector<ColumnRef> attrs;
    for (; i < specs.size() && specs[i].expression == expr; ++i) {
      attrs.push_back(specs[i].attr);
    }
    for (Sit& sit : builder.BuildMany(attrs, expr, &pass)) {
      pool.Add(std::move(sit));
    }
  }
  return pool;
}

}  // namespace condsel
