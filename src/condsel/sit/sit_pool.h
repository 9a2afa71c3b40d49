// The pool of available SITs, and generation of the paper's J_i pools.
//
// Section 5 ("Available SITs"): pool J_i contains every SIT_R(a | Q) where
// Q is a set of at most i join predicates and both Q and a appear
// syntactically in some workload query; J_0 holds exactly the base-table
// histograms. We additionally require Q to be a connected join expression
// that reaches a's table (other combinations do not describe a meaningful
// query expression for a), and we always include base histograms for every
// column any workload query references, since join predicates need base
// histograms on their endpoints even in the richest pools.

#pragma once

#include <map>
#include <tuple>
#include <vector>

#include "condsel/query/query.h"
#include "condsel/sit/sit.h"
#include "condsel/sit/sit_builder.h"

namespace condsel {

class SitPool {
 public:
  // Adds a SIT (deduplicating by (attr, expression)); returns its id.
  SitId Add(Sit sit);

  int32_t size() const { return static_cast<int32_t>(sits_.size()); }
  const Sit& sit(SitId id) const;
  const std::vector<Sit>& sits() const { return sits_; }

  // The base histogram for `col`, or nullptr if absent.
  const Sit* FindBase(ColumnRef col) const;

  // True if a SIT with this (attr, canonical expression) already exists.
  bool Has(ColumnRef attr, const std::vector<Predicate>& expression) const;

  // Statistics generation this pool was built from (0 for pools outside
  // the delta-maintenance path). Estimate caches keyed by predicate sets
  // bind to this stamp: two pools with different generations may assign
  // the same SitId to different statistics contents.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t g) { generation_ = g; }

 private:
  std::vector<Sit> sits_;
  uint64_t generation_ = 0;
  std::map<std::tuple<ColumnRef, ColumnRef, std::vector<Predicate>>,
           SitId>
      index_;
};

// The identity of one statistic: SIT_{attr.table}(attr | expression),
// with the canonical (sorted) expression; empty = base histogram. The
// owning table — the one whose parts partition per-part pieces
// (catalog/part_stats.h) — is always attr.table.
struct SitSpec {
  ColumnRef attr;
  std::vector<Predicate> expression;

  TableId owner() const { return attr.table; }
  // True if the expression references `t` (the owner is referenced by
  // definition only when some predicate mentions it; base specs reference
  // nothing beyond the owner).
  bool References(TableId t) const;

  friend bool operator==(const SitSpec&, const SitSpec&) = default;
};

// The statistics of pool J_i for `workload`, in pool order: base
// histograms over the sorted set of referenced columns (filter and join
// columns alike), then, for i > 0, per canonical expression in map order
// its filter attributes sorted. The list is duplicate-free, so adding
// the SITs in order assigns SitId == spec index.
std::vector<SitSpec> EnumerateSitSpecs(const std::vector<Query>& workload,
                                       int max_join_preds);

// Builds pool J_i for `workload`: one SIT per EnumerateSitSpecs entry,
// in that order.
SitPool GenerateSitPool(const std::vector<Query>& workload, int max_join_preds,
                        const SitBuilder& builder);

}  // namespace condsel

