#include "condsel/selectivity/distinct.h"

#include <algorithm>
#include <cmath>

#include "condsel/catalog/catalog.h"
#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/harness/metrics.h"

namespace condsel {

double EstimateGroupByCardinality(const Catalog& catalog, const Query& query,
                                  PredSet p, ColumnRef col,
                                  SitMatcher* matcher, GetSelectivity* gs) {
  CONDSEL_CHECK(matcher != nullptr);
  CONDSEL_CHECK(gs != nullptr);

  // Best SIT over `col` conditioned on (a subset of) P.
  const std::vector<SitCandidate> candidates = matcher->Candidates(col, p);
  CONDSEL_CHECK_MSG(!candidates.empty(),
                    "no statistics over the grouping column");
  // Prefer the heaviest conditioning (largest matched expression).
  const SitCandidate* best = &candidates[0];
  for (const SitCandidate& c : candidates) {
    if (SetSize(c.expr_mask) > SetSize(best->expr_mask)) best = &c;
  }
  const Histogram& h = best->sit->histogram;
  if (h.empty() || h.total_frequency() <= 0.0) return 0.0;

  // Range predicates of P on `col` itself restrict the candidate domain.
  int64_t lo = h.Domain().first;
  int64_t hi = h.Domain().second;
  for (int i : SetElements(p & query.filter_predicates())) {
    const Predicate& f = query.predicate(i);
    if (f.column() == col) {
      lo = std::max(lo, f.lo());
      hi = std::min(hi, f.hi());
    }
  }
  if (lo > hi) return 0.0;

  // Predicates other than range filters on `col` itself.
  PredSet remaining = p;
  for (int i : SetElements(p & query.filter_predicates())) {
    if (query.predicate(i).column() == col) remaining = Without(remaining, i);
  }

  // Distinct values the SIT sees inside the restricted range.
  double d_in_range = 0.0;
  for (const Bucket& b : h.buckets()) {
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    if (olo > ohi) continue;
    d_in_range += b.distinct * static_cast<double>(ohi - olo + 1) / b.Width();
  }
  // With nothing but filters on `col` itself (and the SIT's own matched
  // expression), every existing value in range survives: no Cardenas
  // thinning applies.
  if (IsSubset(remaining, best->expr_mask)) return d_in_range;

  // Estimated result rows of sigma_P.
  const double rows = gs->Compute(p).selectivity *
                      CrossProductCardinality(catalog, query, p);
  if (rows <= 0.0) return 0.0;

  // Cardenas: per bucket, each of its d values is drawn with probability
  // p_v per result row; expected distinct = d * (1 - (1 - p_v)^rows).
  // p_v is conditioned on the range restriction over `col` (rows of the
  // result that satisfied those filters necessarily land in [lo, hi]).
  // Distinct-value math over the already-chosen statistic's buckets, not
  // a predicate-selectivity lookup — the provider picked `h`; here it is
  // a frequency distribution. condsel: allow(no-raw-histogram-lookup)
  const double range_mass = h.RangeSelectivity(lo, hi);
  if (range_mass <= 0.0) return 0.0;
  double distinct = 0.0;
  for (const Bucket& b : h.buckets()) {
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    if (olo > ohi || b.distinct <= 0.0) continue;
    const double frac = static_cast<double>(ohi - olo + 1) / b.Width();
    const double d = b.distinct * frac;
    if (d <= 0.0) continue;
    const double p_v = (b.frequency * frac / d) / range_mass;
    if (p_v <= 0.0) continue;
    distinct += d * (1.0 - std::pow(std::max(0.0, 1.0 - p_v), rows));
  }
  return SanitizeCardinality(distinct);
}

}  // namespace condsel
