#include "condsel/optimizer/integration.h"

#include <string>

#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/optimizer/rules.h"

namespace condsel {

OptimizerCoupledEstimator::OptimizerCoupledEstimator(
    const Query* query, AtomicSelectivityProvider* provider)
    : query_(query), provider_(provider), memo_(query) {
  CONDSEL_CHECK(query != nullptr);        // invariant: constructor contract
  CONDSEL_CHECK(provider != nullptr);  // invariant: constructor contract
}

StatusOr<SelEstimate> OptimizerCoupledEstimator::TryEstimate(PredSet preds) {
  if (!IsSubset(preds, query_->all_predicates())) {
    return Status::InvalidArgument(
        "predicate subset is not part of the bound query");
  }
  const int id = BuildAndExplore(&memo_, preds);
  return EstimateGroup(id);
}

StatusOr<SelEstimate> OptimizerCoupledEstimator::EstimateGroup(int group_id) {
  auto it = best_.find(group_id);
  if (it != best_.end()) return it->second;

  const Group& g = memo_.group(group_id);
  SelEstimate best;
  best.error = kInfiniteError;
  best.selectivity = 1.0;

  if (g.preds == 0) {
    best = SelEstimate{1.0, 0.0};
    // All scan/cartesian-leaf groups share the empty predicate subset;
    // one empty-set node stands for them in the derivation.
    if (recorder_ != nullptr && !recorder_->recorded(0)) {
      DerivationNode& node = recorder_->AddNode(0);
      node.kind = DerivKind::kEmptySet;
      node.selectivity = 1.0;
      node.error = 0.0;
    }
    best_.emplace(group_id, best);
    return best;
  }

  // Winning entry, for the derivation recording.
  const MemoExpr* best_expr = nullptr;
  double best_head_sel = 1.0;
  FactorChoice best_choice;

  for (const MemoExpr& e : g.exprs) {
    if (e.op == OpKind::kScan) continue;
    ++entries_considered_;

    // Sel(Q_E): separable product over the entry's inputs.
    double input_sel = 1.0;
    double input_err = 0.0;
    bool inputs_ok = true;
    for (int in : e.inputs) {
      const StatusOr<SelEstimate> ie = EstimateGroup(in);
      if (!ie.ok()) {
        // This entry's sub-plan is not estimable; another entry of the
        // group may still be. Only if every entry fails does the group
        // itself report the error below.
        inputs_ok = false;
        break;
      }
      input_sel *= ie.value().selectivity;
      input_err = ErrorFunction::Merge(input_err, ie.value().error);
    }
    if (!inputs_ok) continue;

    if (e.predicate < 0) {
      // Cartesian product entry: no factor on top, exact by Property 2.
      if (input_err < best.error) {
        best.error = input_err;
        best.selectivity = input_sel;
        best_expr = &e;
      }
      continue;
    }

    const PredSet p_e = 1u << e.predicate;
    const PredSet q_e = g.preds & ~p_e;
    FactorChoice choice = provider_->Score(*query_, p_e, q_e);
    if (!choice.feasible) continue;
    const double err = ErrorFunction::Merge(choice.error, input_err);
    if (err < best.error) {
      best.error = err;
      const double head_sel = SanitizeSelectivity(
          provider_->Estimate(*query_, p_e, choice));
      best.selectivity = SanitizeSelectivity(head_sel * input_sel);
      best_expr = &e;
      best_head_sel = head_sel;
      best_choice = choice;
    }
  }
  if (best.error == kInfiniteError) {
    return Status::FailedPrecondition(
        "memo group " + std::to_string(group_id) +
        " has no estimable entry (no statistic approximates any induced "
        "decomposition)");
  }
  if (recorder_ != nullptr && best_expr != nullptr) {
    DerivationNode& node = recorder_->AddNode(g.preds);
    node.selectivity = best.selectivity;
    node.error = best.error;
    for (int in : best_expr->inputs) {
      node.tails.push_back(memo_.group(in).preds);
    }
    if (best_expr->predicate < 0) {
      // Cartesian entry: a separable product over the connected pieces
      // (not necessarily the Lemma 2 standard decomposition — pieces are
      // the memo's, grouped by table connectivity).
      node.kind = DerivKind::kSeparableSplit;
      node.standard_split = false;
    } else {
      node.kind = DerivKind::kConditionalFactor;
      node.head = 1u << best_expr->predicate;
      node.head_selectivity = best_head_sel;
      const PredSet q_e = g.preds & ~node.head;
      const std::vector<FactorProvenance> provenance =
          provider_->Describe(*query_, node.head, best_choice);
      for (size_t i = 0; i < best_choice.sits.size(); ++i) {
        const SitCandidate& cand = best_choice.sits[i];
        SitApplication app;
        app.sit_id = cand.sit->id;
        app.is_base = cand.sit->is_base();
        app.hypothesis = cand.expr_mask;
        app.conditioning = q_e;
        if (i < provenance.size()) app.provenance = provenance[i];
        node.sits.push_back(std::move(app));
      }
    }
  }
  best_.emplace(group_id, best);
  return best;
}

}  // namespace condsel
