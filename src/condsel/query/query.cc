#include "condsel/query/query.h"

#include <algorithm>

#include "condsel/catalog/catalog.h"
#include "condsel/common/macros.h"

namespace condsel {

Query::Query(std::vector<Predicate> predicates)
    : predicates_(std::move(predicates)) {
  CONDSEL_CHECK(static_cast<int>(predicates_.size()) <= kMaxPredicates);
  for (int i = 0; i < num_predicates(); ++i) {
    const Predicate& p = predicates_[static_cast<size_t>(i)];
    tables_ |= p.tables();
    if (p.is_join()) {
      joins_ = With(joins_, i);
    } else {
      filters_ = With(filters_, i);
    }
    for (int k = 0; k < num_predicates(); ++k) {
      const Predicate& other = predicate(k);
      if ((p.tables() & other.tables()) != 0) {
        neighbors_[static_cast<size_t>(i)] |= 1u << k;
      }
      if (p.is_join() && other.is_filter() &&
          (other.column() == p.left() || other.column() == p.right())) {
        join_filters_[static_cast<size_t>(i)] |= 1u << k;
      }
    }
  }
}

std::vector<Predicate> Query::CanonicalSubset(PredSet subset) const {
  std::vector<Predicate> out;
  out.reserve(static_cast<size_t>(SetSize(subset)));
  for (int i : SetElements(subset)) {
    out.push_back(predicates_[static_cast<size_t>(i)]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Query::ToString(const Catalog& catalog) const {
  std::string s = "sigma{";
  for (int i = 0; i < num_predicates(); ++i) {
    if (i > 0) s += " AND ";
    s += predicates_[static_cast<size_t>(i)].ToString(catalog);
  }
  s += "}";
  return s;
}

}  // namespace condsel
