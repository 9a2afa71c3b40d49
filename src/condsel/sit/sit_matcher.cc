#include "condsel/sit/sit_matcher.h"

#include <algorithm>
#include <utility>

#include "condsel/common/fault_injector.h"
#include "condsel/common/macros.h"

namespace condsel {

SitMatcher::SitMatcher(const SitPool* pool) : pool_(pool) {
  CONDSEL_CHECK(pool != nullptr);
}

void SitMatcher::BindQuery(const Query* query) {
  CONDSEL_CHECK(query != nullptr);
  query_ = query;
  ranges_.clear();

  // Map each pool SIT's expression onto the query's predicate indices.
  // A SIT applies iff every expression predicate occurs in the query.
  // Generated pools list the SITs of one expression next to each other
  // (sit_pool.h), so a SIT with its predecessor's expression reuses that
  // match. Each applicable SIT is kept, in pool order, with its group: its
  // key's position in ranges_, which holds the keys in order of first
  // appearance and, until the layout below, counts their SITs.
  struct Tagged {
    SitCandidate c;
    uint32_t group;
  };
  std::vector<Tagged> applicable;
  applicable.reserve(pool_->sits().size());
  std::vector<std::pair<Key, uint32_t>> groups;  // (key, group), by key
  uint32_t per_size[kMaxPredicates + 1] = {};
  const std::vector<Predicate>* matched = nullptr;
  PredSet mask = 0;
  bool ok = false;
  for (const Sit& sit : pool_->sits()) {
    if (matched == nullptr || sit.expression != *matched) {
      matched = &sit.expression;
      mask = 0;
      ok = true;
      for (const Predicate& ep : sit.expression) {
        int found = -1;
        for (int i = 0; i < query->num_predicates(); ++i) {
          if (query->predicate(i) == ep) {
            found = i;
            break;
          }
        }
        if (found < 0) {
          ok = false;
          break;
        }
        mask = With(mask, found);
      }
    }
    if (!ok) continue;
    const Key key(sit.attr, sit.attr2);
    auto it = std::lower_bound(
        groups.begin(), groups.end(), key,
        [](const std::pair<Key, uint32_t>& g, const Key& k) {
          return g.first < k;
        });
    if (it == groups.end() || it->first != key) {
      it = groups.insert(it, {key, static_cast<uint32_t>(ranges_.size())});
      ranges_.push_back(Range{key, 0, 0});
    }
    ++ranges_[it->second].end;
    ++per_size[SetSize(mask)];
    applicable.push_back(Tagged{SitCandidate{&sit, mask}, it->second});
  }

  // Two stable counting sorts, by descending expression size and then by
  // key, leave each group in descending expression size with ties in
  // pool order: the order FilterMaximalInto's single pass relies on.
  uint32_t at = 0;
  for (int size = kMaxPredicates; size >= 0; --size) {
    const uint32_t count = per_size[size];
    per_size[size] = at;
    at += count;
  }
  std::vector<Tagged> by_size(applicable.size());
  for (const Tagged& t : applicable) {
    by_size[per_size[SetSize(t.c.expr_mask)]++] = t;
  }
  at = 0;
  for (const auto& g : groups) {
    Range& r = ranges_[g.second];
    r.begin = at;
    at += r.end;
    r.end = r.begin;
  }
  index_.resize(applicable.size());
  for (const Tagged& t : by_size) index_[ranges_[t.group].end++] = t.c;
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& x, const Range& y) { return x.key < y.key; });
}

std::span<const SitCandidate> SitMatcher::List(const Key& key) const {
  const auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), key,
      [](const Range& r, const Key& k) { return r.key < k; });
  if (it == ranges_.end() || it->key != key) return {};
  return {index_.data() + it->begin, index_.data() + it->end};
}

CONDSEL_HOT void SitMatcher::FilterMaximalInto(
    std::span<const SitCandidate> list, PredSet cond,
    CallAccounting accounting, std::vector<SitCandidate>* out) {
  out->clear();
  if (accounting == CallAccounting::kIndexed) {
    ++num_calls_;
  } else {
    // One probe per applicable SIT examined (at least one for the probe
    // that finds nothing).
    num_calls_ += std::max<size_t>(1, list.size());
  }
  if (list.empty()) return;
  // Fault injection: behave as if no SIT (not even a base histogram)
  // matched, simulating a pool that failed to load. Downstream must
  // degrade, never abort.
  {
    const FaultInjector& fi = FaultInjector::Instance();
    if (fi.armed() && fi.enabled(Fault::kDropSits)) return;
  }
  // Consistency (rule 2) and maximality (rule 3) in one pass over the
  // list's descending expression sizes. A consistent SIT strictly
  // containing c's expression is larger, so it comes before c, and the
  // largest such SIT is maximal itself: c is dominated iff a survivor
  // already in `out` strictly contains it. Lists are not short (18.6
  // SITs per scanned list on the benchmark's 7-join workload), but
  // survivors are (2.4), so each check is.
  for (const SitCandidate& c : list) {
    if (!IsSubset(c.expr_mask, cond)) continue;
    const bool dominated =
        std::any_of(out->begin(), out->end(), [&](const SitCandidate& d) {
          return c.expr_mask != d.expr_mask &&
                 IsSubset(c.expr_mask, d.expr_mask);
        });
    if (!dominated) out->push_back(c);
  }
  // Back to pool order, which is address order (see BindQuery).
  std::sort(out->begin(), out->end(),
            [](const SitCandidate& x, const SitCandidate& y) {
              return x.sit < y.sit;
            });
}

void SitMatcher::CandidatesInto(ColumnRef attr, PredSet cond,
                                CallAccounting accounting,
                                std::vector<SitCandidate>* out) {
  CONDSEL_CHECK(query_ != nullptr);
  FilterMaximalInto(List({attr, ColumnRef{}}), cond, accounting, out);
}

void SitMatcher::Candidates2Into(ColumnRef a, ColumnRef b, PredSet cond,
                                 CallAccounting accounting,
                                 std::vector<SitCandidate>* out) {
  CONDSEL_CHECK(query_ != nullptr);
  if (b < a) std::swap(a, b);
  FilterMaximalInto(List({a, b}), cond, accounting, out);
}

std::vector<SitCandidate> SitMatcher::Candidates(
    ColumnRef attr, PredSet cond, CallAccounting accounting) {
  std::vector<SitCandidate> out;
  CandidatesInto(attr, cond, accounting, &out);
  return out;
}

std::vector<SitCandidate> SitMatcher::Candidates2(
    ColumnRef a, ColumnRef b, PredSet cond, CallAccounting accounting) {
  std::vector<SitCandidate> out;
  Candidates2Into(a, b, cond, accounting, &out);
  return out;
}

}  // namespace condsel
