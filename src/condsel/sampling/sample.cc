#include "condsel/sampling/sample.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "condsel/common/macros.h"
#include "condsel/query/join_graph.h"
#include "condsel/storage/column.h"

namespace condsel {

double SampleSit::Selectivity(
    const std::vector<Predicate>& filters) const {
  if (num_rows_ == 0) return 0.0;
  // Resolve each filter's column to its slot in the reservoir rows.
  std::vector<std::pair<size_t, const Predicate*>> tests;
  for (const Predicate& f : filters) {
    CONDSEL_CHECK(f.is_filter());
    size_t slot = attrs_.size();
    for (size_t i = 0; i < attrs_.size(); ++i) {
      if (attrs_[i] == f.column()) {
        slot = i;
        break;
      }
    }
    CONDSEL_CHECK_MSG(slot < attrs_.size(),
                      "filter attribute not covered by this sample");
    tests.emplace_back(slot, &f);
  }

  const size_t width = attrs_.size();
  size_t matches = 0;
  for (size_t r = 0; r < num_rows_; ++r) {
    bool ok = true;
    for (const auto& [slot, f] : tests) {
      const int64_t v = rows_[r * width + slot];
      if (IsNull(v) || v < f->lo() || v > f->hi()) {
        ok = false;
        break;
      }
    }
    matches += ok;
  }
  return static_cast<double>(matches) / static_cast<double>(num_rows_);
}

double SampleSit::EstimateDistinct(ColumnRef col) const {
  size_t slot = attrs_.size();
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == col) {
      slot = i;
      break;
    }
  }
  CONDSEL_CHECK_MSG(slot < attrs_.size(),
                    "attribute not covered by this sample");
  if (num_rows_ == 0) return 0.0;

  std::map<int64_t, size_t> counts;
  const size_t width = attrs_.size();
  for (size_t r = 0; r < num_rows_; ++r) {
    const int64_t v = rows_[r * width + slot];
    if (!IsNull(v)) ++counts[v];
  }
  size_t f1 = 0, rest = 0;
  for (const auto& [v, c] : counts) {
    if (c == 1) {
      ++f1;
    } else {
      ++rest;
    }
  }
  const double scale = source_cardinality_ > 0.0
                           ? std::sqrt(source_cardinality_ /
                                       static_cast<double>(num_rows_))
                           : 1.0;
  return std::max(1.0, scale) * static_cast<double>(f1) +
         static_cast<double>(rest);
}

SampleSitBuilder::SampleSitBuilder(Evaluator* evaluator,
                                   size_t reservoir_size, uint64_t seed)
    : evaluator_(evaluator),
      reservoir_size_(reservoir_size),
      seed_(seed) {
  CONDSEL_CHECK(evaluator != nullptr);
  CONDSEL_CHECK(reservoir_size > 0);
}

SampleSit SampleSitBuilder::Build(
    const std::vector<ColumnRef>& attrs,
    std::vector<Predicate> expression) const {
  CONDSEL_CHECK(!attrs.empty());
  std::sort(expression.begin(), expression.end());

  SampleSit out;
  out.attrs_ = attrs;
  out.expression_ = expression;
  const size_t width = attrs.size();
  const Catalog& catalog = evaluator_->catalog();
  Rng rng(seed_);

  // Materialize one projected row into `row`.
  std::vector<int64_t> row(width);

  auto reservoir_offer = [&](uint64_t index) -> bool {
    // Returns true if the row should be stored, filling `store_at_`.
    if (index < reservoir_size_) {
      out.rows_.insert(out.rows_.end(), row.begin(), row.end());
      ++out.num_rows_;
      return true;
    }
    const uint64_t j = rng.NextBelow(index + 1);
    if (j < reservoir_size_) {
      std::copy(row.begin(), row.end(),
                out.rows_.begin() + static_cast<long>(j * width));
    }
    return true;
  };

  if (expression.empty()) {
    const TableId t = attrs[0].table;
    for (const ColumnRef& a : attrs) {
      CONDSEL_CHECK_MSG(a.table == t,
                        "base sample needs same-table attributes");
    }
    const Table& table = catalog.table(t);
    out.source_cardinality_ = static_cast<double>(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t c = 0; c < width; ++c) {
        row[c] = table.value(r, attrs[c].column);
      }
      reservoir_offer(r);
    }
    return out;
  }

  const Query expr_query(expression);
  const PredSet all = expr_query.all_predicates();
  CONDSEL_CHECK_MSG(
      ConnectedComponents(expr_query, all).size() == 1,
      "sample expression must be connected");
  const JoinResult jr = evaluator_->EvaluateComponent(expr_query, all);
  out.source_cardinality_ = static_cast<double>(jr.num_tuples);
  std::vector<int> slots(width);
  for (size_t c = 0; c < width; ++c) {
    slots[c] = jr.TableSlot(attrs[c].table);
    CONDSEL_CHECK_MSG(slots[c] >= 0,
                      "attribute's table missing from the expression");
  }
  const size_t jr_width = jr.tables.size();
  for (size_t i = 0; i < jr.num_tuples; ++i) {
    for (size_t c = 0; c < width; ++c) {
      const Table& t = catalog.table(attrs[c].table);
      row[c] = t.value(
          jr.tuple_rows[i * jr_width + static_cast<size_t>(slots[c])],
          attrs[c].column);
    }
    reservoir_offer(i);
  }
  return out;
}

}  // namespace condsel
