// condsel/api.h — the one-stop facade.
//
// Wraps the catalog + SIT pool + matcher + getSelectivity wiring behind a
// single object, the way an optimizer would embed the library:
//
//   Estimator est(&catalog, &pool, Ranking::kDiff);
//   StatusOr<double> rows = est.TryEstimateCardinality(query);
//   if (!rows.ok()) return rows.status();
//   StatusOr<std::string> why = est.TryExplain(query);
//
// The estimator keeps one memoized DP per distinct query (keyed by the
// query's canonical predicate list), so an optimizer issuing many
// sub-plan requests against the same query pays for one search.
// Lower-level control (custom error functions, direct factor access)
// remains available through the individual headers.
//
// The Try* methods are the only entry points: they validate the request
// against the catalog and pool up front and report every
// user-triggerable failure (unknown columns, missing base histograms, a
// pool deserialized against the wrong catalog) as a recoverable Status
// instead of aborting. A caller that cannot handle the error writes
// .value(), which aborts with the status message. An EstimationBudget
// (see get_selectivity.h) caps the per-query search; on exhaustion
// estimates degrade to the independence assumption rather than blocking
// or failing. The budget's deadline is per-Compute state owned by each
// session's driver and passed down the layers as a call argument
// (budget.h documents the contract): an AtomicSelectivityProvider shared
// by several concurrent estimation sessions carries no deadline — or any
// other per-search — state, so the sessions cannot clobber each other's
// clock.

#pragma once

#include <map>
#include <memory>
#include <string>

#include "condsel/catalog/catalog.h"
#include "condsel/common/status.h"
#include "condsel/exec/evaluator.h"
#include "condsel/query/query.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/selectivity/shape_cache.h"
#include "condsel/sit/sit_matcher.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

// Which decomposition-ranking error function to use (Sections 3.2, 3.5).
enum class Ranking { kNInd, kDiff };

class Estimator {
 public:
  // Both pointers are borrowed and must outlive the estimator unchanged,
  // because its sessions keep estimates and SIT pointers from them: new
  // statistics take a new pool and a new Estimator. The pool must contain
  // base histograms for every column the queries reference (TryEstimate*
  // reports a violation as FAILED_PRECONDITION). `shape_cache` (optional,
  // borrowed) shares decomposition skeletons across estimators — a
  // service passes one cache to every per-attempt estimator so
  // structurally identical statements enumerate candidates once; when
  // null, the estimator uses a private cache (still shared across its own
  // sessions).
  Estimator(const Catalog* catalog, const SitPool* pool,
            Ranking ranking = Ranking::kDiff,
            EstimationBudget budget = EstimationBudget{},
            ShapeCache* shape_cache = nullptr);
  ~Estimator();

  Estimator(const Estimator&) = delete;
  Estimator& operator=(const Estimator&) = delete;

  // Recoverable entry points. Errors:
  //  - INVALID_ARGUMENT: a predicate references a table/column outside the
  //    catalog, or `p` is not a subset of the query's predicates;
  //  - FAILED_PRECONDITION: the pool lacks a base histogram for a
  //    referenced column, or the pool references columns outside the
  //    catalog (e.g. loaded against the wrong database).
  // Budget exhaustion is NOT an error: the estimate degrades gracefully
  // and the degradation is visible via StatsFor()/Explain().
  StatusOr<double> TryEstimateSelectivity(const Query& query, PredSet p);
  StatusOr<double> TryEstimateSelectivity(const Query& query);
  StatusOr<double> TryEstimateCardinality(const Query& query, PredSet p);
  StatusOr<double> TryEstimateCardinality(const Query& query);
  StatusOr<std::string> TryExplain(const Query& query);

  // Like TryEstimateSelectivity, but treats graceful degradation as an
  // error: if the estimation budget ran out or any subproblem fell back
  // to the independence estimate, returns RESOURCE_EXHAUSTED instead of
  // the (still well-formed) degraded value. For callers that would rather
  // re-plan with a bigger budget than consume a low-fidelity estimate.
  StatusOr<double> TryEstimateSelectivityStrict(const Query& query,
                                                PredSet p);

  // The budget applies to every live and future memoized search (it is
  // re-read on each Compute call).
  void set_budget(const EstimationBudget& budget) { budget_ = budget; }
  const EstimationBudget& budget() const { return budget_; }

  // Search statistics for `query`'s memoized session, or nullptr if no
  // estimate has been requested for it yet. Includes the degradation
  // accounting (GsStats::budget_exhausted, degraded_subproblems).
  const GsStats* StatsFor(const Query& query) const;

  // Number of distinct queries with a live memoized search.
  size_t cached_queries() const { return sessions_.size(); }
  void ClearCache();

 private:
  // Per-query session: owns the bound matcher, provider, and DP.
  struct Session;
  Session& SessionFor(const Query& query);
  // Pre-flight validation of a request; only the predicates selected by
  // `subset` are checked (see TryEstimateSelectivity).
  Status ValidateQuery(const Query& query, PredSet subset) const;
  Status ValidatePool() const;
  // Runs the auditor over the session's derivation if one is recorded and
  // has grown since the last pass; aborts on violations.
  void AuditSession(Session& session);

  const Catalog* catalog_;
  const SitPool* pool_;
  Ranking ranking_;
  EstimationBudget budget_;
  // Post-estimate derivation auditing. When on, every session records its
  // DP steps into a DerivationDag (analysis/derivation.h) and each
  // estimate is followed by a DerivationAuditor pass over the session's
  // derivation; a violation aborts — it means a library bug, never user
  // error (user-triggerable failures surface as Status beforehand). On in
  // debug builds and off in release; the CONDSEL_AUDIT environment
  // variable overrides either way ("0"/"false"/"off"/"no" disables,
  // anything else enables).
  const bool audit_;
  // Decomposition-skeleton sharing: points at the caller's cache, or at
  // own_shapes_ when none was provided.
  ShapeCache own_shapes_;
  ShapeCache* shape_cache_;
  // Lazily computed, cached result of ValidatePool: the pool never
  // changes, so it validates once.
  mutable bool pool_validated_ = false;
  mutable Status pool_status_;
  std::map<std::vector<Predicate>, std::unique_ptr<Session>> sessions_;
};

}  // namespace condsel

