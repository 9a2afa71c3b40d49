// Coupling getSelectivity with the optimizer's search (Section 4.2).
//
// Instead of exploring every atomic decomposition, the coupled estimator
// only considers the decompositions *induced by memo entries*: an entry E
// of the group for predicate set P splits P into the entry's own
// predicate p_E and the inputs' predicates Q_E, inducing
//   Sel(P) = Sel(p_E | Q_E) * Sel(Q_E),
// where Sel(Q_E) factors separably across E's inputs (each input group's
// own best estimate). The search is thereby pruned by the optimizer's own
// enumeration — cheaper, at the cost of possibly missing the optimum the
// full DP would find (the trade-off Section 4.2 describes).
//
// TryEstimate is the production entry point: requests outside the bound
// query, and memo groups in which no entry is estimable (e.g. a pool with
// no usable statistics for any induced decomposition), come back as a
// recoverable Status the optimizer can branch on.

#pragma once

#include <map>

#include "condsel/analysis/derivation.h"
#include "condsel/common/status.h"
#include "condsel/optimizer/memo.h"
#include "condsel/selectivity/get_selectivity.h"

namespace condsel {

class OptimizerCoupledEstimator {
 public:
  // The provider's matcher must be bound to `query`.
  OptimizerCoupledEstimator(const Query* query,
                            AtomicSelectivityProvider* provider);

  // Best estimate for the sub-plan applying `preds`, per the entry-induced
  // decompositions. Lazily builds and explores the memo. Errors:
  //  - INVALID_ARGUMENT: `preds` is not a subset of the bound query's
  //    predicates;
  //  - FAILED_PRECONDITION: some reachable memo group has no estimable
  //    entry (no SIT or base statistic can approximate any of its induced
  //    decompositions).
  StatusOr<SelEstimate> TryEstimate(PredSet preds);

  const Memo& memo() const { return memo_; }
  uint64_t entries_considered() const { return entries_considered_; }

  // Optional derivation recording: the winning entry-induced decomposition
  // of every estimated memo group is appended to `dag` (a conditional
  // factorization Sel(p_E|Q_E)·Sel(Q_E) for select/join entries, a
  // separable split for cartesian entries, an empty-set node for scans)
  // for DerivationAuditor. Attach before the first TryEstimate; borrowed;
  // nullptr stops recording.
  void set_recorder(DerivationDag* dag) { recorder_ = dag; }

 private:
  StatusOr<SelEstimate> EstimateGroup(int group_id);

  const Query* query_;
  AtomicSelectivityProvider* provider_;
  Memo memo_;
  std::map<int, SelEstimate> best_;  // group id -> best estimate
  uint64_t entries_considered_ = 0;
  DerivationDag* recorder_ = nullptr;
};

}  // namespace condsel
