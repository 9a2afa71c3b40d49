// Mutation: a join kernel's selectivity lands in an indented, typed
// local (`const double`) and escapes a `double` return without passing
// SanitizeSelectivity. Must trip sanitize-flow only.

namespace condsel {

double JoinFactor(const Histogram& left, const Histogram& right) {
  const double sel = JoinSelectivity(left, right);
  return sel;
}

}  // namespace condsel
