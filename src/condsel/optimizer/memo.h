// A Cascades-style memoization table (Section 4.1).
//
// Groups collect logically equivalent sub-plans of one SPJ query. In the
// canonical predicate-set representation, a group is identified by the
// predicate subset it applies plus the tables it covers (scan groups
// apply no predicates). Each group entry records a *last operator*:
//   [SELECT, {p}, {input}]  or  [JOIN, {j}, {left, right}]
// with inputs pointing at other groups — exactly the paper's
// [op, parms, inputs] shape, and exactly what induces the decomposition
// Sel(p_E | Q_E) * Sel(Q_E) used by the Section 4.2 integration.
//
// Concurrency: group *creation* is internally synchronized and group
// storage is a deque, so ids and Group references handed out stay valid
// while other threads create groups (no vector reallocation). Mutating a
// group's entries (exploration) is NOT synchronized here — the rule
// engine owns that, and today explores single-threaded; the annotations
// and stable storage are the groundwork for parallelizing it.

#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "condsel/common/thread_annotations.h"
#include "condsel/query/query.h"

namespace condsel {

enum class OpKind { kScan, kSelect, kJoin };

struct MemoExpr {
  OpKind op = OpKind::kScan;
  int predicate = -1;       // query predicate index for kSelect / kJoin
  std::vector<int> inputs;  // group ids
};

struct Group {
  PredSet preds = 0;    // predicates applied by this sub-plan
  TableSet tables = 0;  // tables covered
  std::vector<MemoExpr> exprs;
  bool explored = false;
};

class Memo {
 public:
  explicit Memo(const Query* query);

  // Returns the id of the group for (preds, tables), creating it if new.
  // Safe to call from concurrent explorers.
  int GetOrCreateGroup(PredSet preds, TableSet tables) CONDSEL_EXCLUDES(mu_);

  // References stay valid across later GetOrCreateGroup calls (deque
  // storage); the Group's own fields are the caller's to synchronize.
  Group& group(int id);
  const Group& group(int id) const;
  int num_groups() const {
    return num_groups_.load(std::memory_order_acquire);
  }
  int num_exprs() const;

  const Query& query() const { return *query_; }

  std::string ToString() const;

 private:
  const Query* query_;
  mutable std::mutex mu_;
  std::map<std::pair<PredSet, TableSet>, int> index_ CONDSEL_GUARDED_BY(mu_);
  // Append-only; elements are published by the release store to
  // num_groups_, so readers may index any id below num_groups().
  // condsel: allow(guarded-field)
  std::deque<Group> groups_;
  std::atomic<int> num_groups_{0};
};

}  // namespace condsel
