#include "condsel/harness/runner.h"

#include <chrono>
#include <cmath>

#include "condsel/baselines/gvm.h"
#include "condsel/baselines/no_sit.h"
#include "condsel/common/macros.h"
#include "condsel/harness/metrics.h"
#include "condsel/selectivity/get_selectivity.h"
#include "condsel/sit/sit_matcher.h"

namespace condsel {

const char* TechniqueName(Technique t) {
  switch (t) {
    case Technique::kNoSit:
      return "noSit";
    case Technique::kGvm:
      return "GVM";
    case Technique::kGsNInd:
      return "GS-nInd";
    case Technique::kGsDiff:
      return "GS-Diff";
    case Technique::kGsOpt:
      return "GS-Opt";
  }
  return "?";
}

Runner::Runner(const Catalog* catalog, Evaluator* evaluator)
    : catalog_(catalog), evaluator_(evaluator) {
  CONDSEL_CHECK(catalog != nullptr);
  CONDSEL_CHECK(evaluator != nullptr);
}

WorkloadRunResult Runner::Run(const std::vector<Query>& workload,
                              const SitPool& pool, Technique technique) {
  using Clock = std::chrono::steady_clock;
  WorkloadRunResult result;
  result.technique = technique;

  NIndError n_ind;
  DiffError diff;
  OptError opt(evaluator_);
  // Decomposition skeletons shared across the workload: structurally
  // identical queries (the generator varies constants far more often than
  // shapes) enumerate candidates once.
  ShapeCache shapes;
  const ErrorFunction* error_fn = nullptr;
  switch (technique) {
    case Technique::kGsNInd:
      error_fn = &n_ind;
      break;
    case Technique::kGsDiff:
      error_fn = &diff;
      break;
    case Technique::kGsOpt:
      error_fn = &opt;
      break;
    default:
      break;
  }

  for (const Query& query : workload) {
    SitMatcher matcher(&pool);
    matcher.BindQuery(&query);

    QueryRunResult qr;
    const std::vector<PredSet> subplans = SubPlanFamily(query);

    // Per-technique estimator; GS memoizes across this query's sub-plan
    // requests, GVM and noSit recompute each request (as the originals
    // do).
    const ErrorFunction* gs_fn = error_fn != nullptr ? error_fn : &n_ind;
    AtomicSelectivityProvider gs_approx(&matcher, gs_fn);
    const std::shared_ptr<ShapeCache::Entry> shape = shapes.Acquire(query);
    GetSelectivity gs(&query, &gs_approx, nullptr, shape.get());
    NoSitEstimator no_sit(&matcher);
    GvmEstimator gvm(&matcher);

    double err_sum = 0.0;
    const auto t0 = Clock::now();
    for (PredSet plan : subplans) {
      double est_sel = 0.0;
      switch (technique) {
        case Technique::kNoSit:
          est_sel = no_sit.Estimate(query, plan);
          break;
        case Technique::kGvm:
          est_sel = gvm.Estimate(query, plan);
          break;
        default:
          est_sel = gs.Compute(plan).selectivity;
          break;
      }
      const double cross = CrossProductCardinality(*catalog_, query, plan);
      const double est_card = est_sel * cross;
      const double true_card = evaluator_->Cardinality(query, plan);
      const double abs_err = std::abs(est_card - true_card);
      err_sum += abs_err;
      qr.max_abs_error = std::max(qr.max_abs_error, abs_err);
      if (plan == query.all_predicates()) {
        qr.full_query_true = true_card;
        qr.full_query_est = est_card;
      }
    }
    qr.estimate_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    qr.avg_abs_error = err_sum / static_cast<double>(subplans.size());
    qr.matcher_calls = matcher.num_calls();
    if (error_fn != nullptr) {
      qr.analysis_seconds = gs.stats().analysis_seconds;
      qr.histogram_seconds = gs.stats().histogram_seconds;
    }
    result.per_query.push_back(qr);
  }

  // Workload-level averages.
  const double n = static_cast<double>(result.per_query.size());
  for (const QueryRunResult& qr : result.per_query) {
    result.avg_abs_error += qr.avg_abs_error / n;
    result.avg_matcher_calls +=
        static_cast<double>(qr.matcher_calls) / n;
    result.avg_analysis_ms += qr.analysis_seconds * 1000.0 / n;
    result.avg_histogram_ms += qr.histogram_seconds * 1000.0 / n;
    result.avg_estimate_ms += qr.estimate_seconds * 1000.0 / n;
  }
  return result;
}

}  // namespace condsel
