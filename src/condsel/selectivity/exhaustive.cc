#include "condsel/selectivity/exhaustive.h"

#include "condsel/common/numeric.h"
#include "condsel/selectivity/separability.h"

namespace condsel {
namespace {

struct SearchState {
  const Query* query;
  AtomicSelectivityProvider* provider;
  bool separable_first;
  DerivationDag* dag;
  uint64_t nodes = 0;
};

// Winning alternative for one subset, carried out of the search so the
// derivation can be recorded once the subset's recursion completes.
struct BestChoice {
  bool separable = false;
  std::vector<PredSet> components;  // separable winner
  PredSet head = 0;                 // atomic winner
  double head_sel = 1.0;
  FactorChoice choice;
};

void Record(SearchState& st, PredSet p, double err, double sel,
            const BestChoice& best) {
  if (st.dag == nullptr || err == kInfiniteError || st.dag->recorded(p)) {
    return;
  }
  DerivationNode& node = st.dag->AddNode(p);
  node.selectivity = sel;
  node.error = err;
  if (best.separable) {
    node.kind = DerivKind::kSeparableSplit;
    node.tails = best.components;
    node.standard_split = true;
    return;
  }
  node.kind = DerivKind::kConditionalFactor;
  node.head = best.head;
  node.head_selectivity = best.head_sel;
  const PredSet cond = p & ~best.head;
  node.tails.push_back(cond);
  const std::vector<FactorProvenance> provenance =
      st.provider->Describe(*st.query, best.head, best.choice);
  for (size_t i = 0; i < best.choice.sits.size(); ++i) {
    const SitCandidate& cand = best.choice.sits[i];
    SitApplication app;
    app.sit_id = cand.sit->id;
    app.is_base = cand.sit->is_base();
    app.hypothesis = cand.expr_mask;
    app.conditioning = cond;
    if (i < provenance.size()) app.provenance = provenance[i];
    node.sits.push_back(std::move(app));
  }
}

// Returns {error, selectivity} for the best decomposition of Sel(p).
std::pair<double, double> Best(SearchState& st, PredSet p) {
  ++st.nodes;
  if (p == 0) {
    if (st.dag != nullptr && !st.dag->recorded(0)) {
      DerivationNode& node = st.dag->AddNode(0);
      node.kind = DerivKind::kEmptySet;
      node.selectivity = 1.0;
      node.error = 0.0;
    }
    return {0.0, 1.0};
  }

  const ComponentList comps = StandardDecompositionFast(*st.query, p);
  double best_err = kInfiniteError;
  double best_sel = 0.0;
  BestChoice best;

  if (comps.size() > 1) {
    double err = 0.0, sel = 1.0;
    bool ok = true;
    for (PredSet c : comps) {
      const auto [ce, cs] = Best(st, c);
      if (ce == kInfiniteError) {
        ok = false;
        break;
      }
      err = ErrorFunction::Merge(err, ce);
      sel *= cs;
    }
    if (ok) {
      best_err = err;
      best_sel = sel;
      best.separable = true;
      best.components.assign(comps.begin(), comps.end());
    }
    if (st.separable_first) {
      Record(st, p, best_err, best_sel, best);
      return {best_err, best_sel};
    }
  }

  // Atomic decompositions: every non-empty P' heads a factor.
  for (PredSet p_prime = p; p_prime != 0;
       p_prime = PrevSubmask(p, p_prime)) {
    const PredSet q = p & ~p_prime;
    FactorChoice choice = st.provider->Score(*st.query, p_prime, q);
    if (!choice.feasible) continue;
    const auto [qe, qs] = Best(st, q);
    if (qe == kInfiniteError) continue;
    const double err = ErrorFunction::Merge(choice.error, qe);
    if (err < best_err) {
      best_err = err;
      best.separable = false;
      best.head = p_prime;
      best.head_sel = st.provider->Estimate(*st.query, p_prime, choice);
      best.choice = choice;
      best_sel = best.head_sel * qs;
    }
  }
  Record(st, p, best_err, best_sel, best);
  return {best_err, best_sel};
}

}  // namespace

ExhaustiveResult ExhaustiveBest(const Query& query, PredSet p,
                                AtomicSelectivityProvider* provider,
                                bool separable_first, DerivationDag* dag) {
  SearchState st{&query, provider, separable_first, dag, 0};
  const auto [err, sel] = Best(st, p);
  ExhaustiveResult r;
  r.error = err;
  r.selectivity = SanitizeSelectivity(sel);
  r.nodes_explored = st.nodes;
  return r;
}

}  // namespace condsel
