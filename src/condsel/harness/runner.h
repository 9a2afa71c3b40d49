// Drives the Section 5 experiments: runs a technique over a workload and
// collects accuracy, view-matching and timing statistics.

#pragma once

#include <cstdint>
#include <vector>

#include "condsel/catalog/catalog.h"
#include "condsel/exec/evaluator.h"
#include "condsel/query/query.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {

enum class Technique { kNoSit, kGvm, kGsNInd, kGsDiff, kGsOpt };

const char* TechniqueName(Technique t);

struct QueryRunResult {
  double avg_abs_error = 0.0;   // mean |est - true| over sub-plans
  double max_abs_error = 0.0;
  double full_query_true = 0.0;  // exact cardinality of the whole query
  double full_query_est = 0.0;
  uint64_t matcher_calls = 0;    // view-matching calls this query consumed
  double analysis_seconds = 0.0;   // GS techniques only
  double histogram_seconds = 0.0;  // GS techniques only
  double estimate_seconds = 0.0;   // wall time spent estimating
};

struct WorkloadRunResult {
  Technique technique = Technique::kNoSit;
  std::vector<QueryRunResult> per_query;
  double avg_abs_error = 0.0;      // mean of per-query averages
  double avg_matcher_calls = 0.0;  // mean per query
  double avg_analysis_ms = 0.0;
  double avg_histogram_ms = 0.0;
  double avg_estimate_ms = 0.0;
};

class Runner {
 public:
  Runner(const Catalog* catalog, Evaluator* evaluator);

  // Runs `technique` with `pool` over the workload: for each query,
  // estimates every sub-plan's cardinality and scores it against the
  // exact value.
  WorkloadRunResult Run(const std::vector<Query>& workload, const SitPool& pool,
                        Technique technique);

 private:
  const Catalog* catalog_;
  Evaluator* evaluator_;
};

}  // namespace condsel

