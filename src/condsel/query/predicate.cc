#include "condsel/query/predicate.h"

#include <cinttypes>
#include <cstdio>

#include "condsel/catalog/catalog.h"
#include "condsel/common/macros.h"

namespace condsel {

Predicate Predicate::Filter(ColumnRef column, int64_t lo, int64_t hi) {
  CONDSEL_CHECK(lo <= hi);
  Predicate p;
  p.kind_ = PredicateKind::kFilter;
  p.cols_[0] = column;
  p.cols_[1] = ColumnRef{};
  p.lo_ = lo;
  p.hi_ = hi;
  return p;
}

Predicate Predicate::Equals(ColumnRef column, int64_t v) {
  return Filter(column, v, v);
}

Predicate Predicate::Join(ColumnRef left, ColumnRef right) {
  CONDSEL_CHECK(left.table != right.table);  // no self-joins (see DESIGN.md)
  Predicate p;
  p.kind_ = PredicateKind::kJoin;
  if (right < left) std::swap(left, right);
  p.cols_[0] = left;
  p.cols_[1] = right;
  return p;
}

ColumnRef Predicate::column() const {
  CONDSEL_CHECK(is_filter());
  return cols_[0];
}

int64_t Predicate::lo() const {
  CONDSEL_CHECK(is_filter());
  return lo_;
}

int64_t Predicate::hi() const {
  CONDSEL_CHECK(is_filter());
  return hi_;
}

ColumnRef Predicate::left() const {
  CONDSEL_CHECK(is_join());
  return cols_[0];
}

ColumnRef Predicate::right() const {
  CONDSEL_CHECK(is_join());
  return cols_[1];
}

TableSet Predicate::tables() const {
  TableSet s = 1u << cols_[0].table;
  if (is_join()) s |= 1u << cols_[1].table;
  return s;
}

std::string Predicate::ToString(const Catalog& catalog) const {
  char buf[160];
  auto col_name = [&](const ColumnRef& c) {
    return catalog.table(c.table).schema().name + "." +
           catalog.table(c.table)
               .schema()
               .columns[static_cast<size_t>(c.column)]
               .name;
  };
  if (is_filter()) {
    if (lo_ == hi_) {
      std::snprintf(buf, sizeof(buf), "%s = %" PRId64,
                    col_name(cols_[0]).c_str(), lo_);
    } else {
      std::snprintf(buf, sizeof(buf), "%s in [%" PRId64 ",%" PRId64 "]",
                    col_name(cols_[0]).c_str(), lo_, hi_);
    }
  } else {
    std::snprintf(buf, sizeof(buf), "%s = %s", col_name(cols_[0]).c_str(),
                  col_name(cols_[1]).c_str());
  }
  return buf;
}

std::string Predicate::ToString() const {
  char buf[160];
  if (is_filter()) {
    std::snprintf(buf, sizeof(buf),
                  "T%d.c%d in [%" PRId64 ",%" PRId64 "]", cols_[0].table,
                  cols_[0].column, lo_, hi_);
  } else {
    std::snprintf(buf, sizeof(buf), "T%d.c%d = T%d.c%d", cols_[0].table,
                  cols_[0].column, cols_[1].table, cols_[1].column);
  }
  return buf;
}

TableSet TablesOf(const std::vector<Predicate>& preds, PredSet subset) {
  TableSet s = 0;
  for (int i = 0; i < static_cast<int>(preds.size()); ++i) {
    if (Contains(subset, i)) s |= preds[static_cast<size_t>(i)].tables();
  }
  return s;
}

std::vector<int> SetElements(uint32_t s) {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(SetSize(s)));
  while (s != 0) {
    const int i = std::countr_zero(s);
    out.push_back(i);
    s &= s - 1;
  }
  return out;
}

}  // namespace condsel
