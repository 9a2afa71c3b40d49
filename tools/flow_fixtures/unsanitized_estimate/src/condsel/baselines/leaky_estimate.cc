// Mutation: an out-of-line, selectivity-returning Estimate in a baseline
// multiplies per-predicate histogram selectivities and returns the
// product without SanitizeSelectivity, so NaN or out-of-range values reach
// plan costing. Must trip sanitize-flow only.

namespace condsel {

double LeakyBaseline::Estimate(const Query& query) const {
  double sel = 1.0;
  for (const Predicate& p : query.predicates()) {
    sel *= RangeSelectivity(HistogramFor(p), p.lo(), p.hi());
  }
  return sel;
}

}  // namespace condsel
