#include "condsel/selectivity/get_selectivity.h"

#include <bit>
#include <chrono>
#include <utility>

#include "condsel/catalog/catalog.h"
#include "condsel/common/fault_injector.h"
#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/selectivity/decomposer.h"
#include "condsel/selectivity/sel_expr.h"
#include "condsel/selectivity/separability.h"

namespace condsel {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

GetSelectivity::GetSelectivity(const Query* query,
                               AtomicSelectivityProvider* provider,
                               const EstimationBudget* budget,
                               ShapeCache::Entry* shape)
    : query_(query), provider_(provider), budget_(budget), shape_(shape) {
  CONDSEL_CHECK(query != nullptr);
  CONDSEL_CHECK(provider != nullptr);
}

GetSelectivity::~GetSelectivity() = default;

CONDSEL_HOT SelEstimate GetSelectivity::Compute(PredSet p) {
  const Clock::time_point start = Clock::now();
  const double histogram_before = stats_.histogram_seconds;
  // Arm the per-call deadline for the duration of this call (the count
  // caps are cumulative and need no per-call state). The clock is passed
  // down explicitly — Score's and AtomicFactorCandidatesInto's deadline
  // arguments — never parked in the shared provider, so concurrent
  // estimators on one provider cannot clobber each other's deadline. RAII
  // disarms on every exit path: an exception escaping the search (an
  // embedder hook, an injected fault) must not leave a stale clock armed
  // for the next call.
  const ScopedDeadline scoped(
      &deadline_, budget_ != nullptr ? budget_->deadline_seconds : 0.0);
  // Rewind the scratch arena (its blocks are retained): every candidate
  // list the previous call carved out is dead by contract, because no
  // arena pointer escapes a Compute() call.
  arena_.Reset();
  factor_estimates_ = ArenaVector<FactorEstimate>(&arena_);
  factor_heads_.fill(-1);
  const MemoEntry& e = ComputeEntry(p);
  // Fig. 8's split: EstimateFactor clocks the provider's Estimate calls,
  // and the rest of this call's wall time is analysis.
  stats_.analysis_seconds += Seconds(start, Clock::now()) -
                             (stats_.histogram_seconds - histogram_before);
  return SelEstimate{e.selectivity, e.error};
}

CONDSEL_HOT const DerivationAtom& GetSelectivity::SinglePredicateFallback(
    int i) {
  if (const DerivationAtom* hit = memo_.FindAtom(i)) return *hit;
  const DerivationAtom& stored =
      memo_.InsertAtom(i, provider_->BaseAtom(*query_, i, /*describe=*/true));
  // 1.0 never understates a cardinality, the safe direction for an
  // optimizer that must still produce a plan. Counted once per predicate.
  if (!stored.has_stat) ++stats_.default_fallbacks;
  return stored;
}

CONDSEL_HOT void GetSelectivity::EnumerateCandidates(
    PredSet p, ArenaVector<PredSet>* out) {
  if (shape_ != nullptr && shape_->CopyCandidates(p, out)) {
    ++stats_.shape_cache_hits;
    return;
  }
  bool truncated = false;
  AtomicFactorCandidatesInto(*query_, p, &deadline_, &truncated, out);
  if (shape_ != nullptr) {
    ++stats_.shape_cache_misses;
    // A truncated list is an artifact of this call's deadline, not of the
    // statement's shape — caching it would leak one call's degradation
    // into every later structurally identical statement.
    if (!truncated) shape_->StoreCandidates(p, *out);
  }
}

CONDSEL_HOT double GetSelectivity::EstimateFactor(
    PredSet p_prime, const FactorChoice& choice) {
  static_assert(SitVec::kCapacity == 2);
  const Sit* s0 = choice.sits[0].sit;
  const Sit* s1 = choice.sits.size() > 1 ? choice.sits[1].sit : nullptr;
  int32_t& head = factor_heads_[std::countr_zero(p_prime)];
  for (int32_t i = head; i >= 0; i = factor_estimates_[i].next) {
    const FactorEstimate& e = factor_estimates_[i];
    if (e.p_prime == p_prime && e.sits[0] == s0 && e.sits[1] == s1) {
      // Stored sanitized below; a hit returns those bits unchanged.
      // condsel: allow(sanitize-flow)
      return e.selectivity;
    }
  }
  const Clock::time_point t0 = Clock::now();
  const double sel =
      SanitizeSelectivity(provider_->Estimate(*query_, p_prime, choice));
  stats_.histogram_seconds += Seconds(t0, Clock::now());
  factor_estimates_.Append(FactorEstimate{p_prime, head, {s0, s1}, sel});
  head = static_cast<int32_t>(factor_estimates_.size() - 1);
  return sel;
}

CONDSEL_HOT MemoEntry GetSelectivity::DegradedEntry(PredSet p,
                                                    FallbackReason reason) {
  MemoEntry entry;
  entry.kind = MemoEntryKind::kDegraded;
  entry.fallback = reason;
  entry.error = kInfiniteError;  // never preferred over a scored candidate
  double sel = 1.0;
  for (int i : SetElements(p)) sel *= SinglePredicateFallback(i).selectivity;
  entry.selectivity = SanitizeSelectivity(sel);
  ++stats_.degraded_subproblems;
  return entry;
}

void GetSelectivity::RecordEntry(PredSet p, const MemoEntry& entry) {
  if (recorder_ == nullptr) return;
  DerivationNode& node = recorder_->AddNode(p);
  // Recording mirrors the memo entry verbatim: its selectivity was
  // sanitized when the entry was built, and re-wrapping here would
  // mask an upstream sanitize regression from the audit.
  // condsel: allow(sanitize-flow)
  node.selectivity = entry.selectivity;
  node.error = entry.error;
  const FaultInjector& fi = FaultInjector::Instance();
  switch (entry.kind) {
    case MemoEntryKind::kEmpty:
      node.kind = DerivKind::kEmptySet;
      break;
    case MemoEntryKind::kSeparable:
      node.kind = DerivKind::kSeparableSplit;
      node.tails.assign(entry.components.begin(), entry.components.end());
      node.standard_split = true;
      break;
    case MemoEntryKind::kAtomic: {
      node.kind = DerivKind::kConditionalFactor;
      node.head = entry.best_p_prime;
      node.head_selectivity = entry.factor_selectivity;
      // Mutation hook (tests/derivation_audit_test.cc): a corrupted
      // recording must be *caught* by the auditor, proving the checker
      // can fail — the estimate itself is left untouched.
      if (fi.armed() && fi.enabled(Fault::kCorruptDerivationFactor)) {
        node.head_selectivity = 1.5;
      }
      const PredSet cond = p & ~entry.best_p_prime;
      node.tails.push_back(cond);
      const std::vector<FactorProvenance> provenance =
          provider_->Describe(*query_, entry.best_p_prime, entry.choice);
      for (size_t i = 0; i < entry.choice.sits.size(); ++i) {
        const SitCandidate& cand = entry.choice.sits[i];
        SitApplication app;
        app.sit_id = cand.sit->id;
        app.is_base = cand.sit->is_base();
        app.hypothesis = cand.expr_mask;
        app.conditioning = cond;
        if (fi.armed() && fi.enabled(Fault::kCorruptHypothesisSet)) {
          // Claim the statistic also accounts for the head predicates —
          // a hypothesis set outside the conditioning set.
          app.hypothesis |= entry.best_p_prime;
        }
        if (i < provenance.size()) app.provenance = provenance[i];
        node.sits.push_back(std::move(app));
      }
      break;
    }
    case MemoEntryKind::kDegraded:
      node.kind = DerivKind::kPredicateProduct;
      node.fallback = entry.fallback;
      for (int i : SetElements(p)) {
        node.atoms.push_back(SinglePredicateFallback(i));
      }
      break;
  }
}

CONDSEL_HOT MemoEntry GetSelectivity::SolveNonSeparable(
    PredSet p, const ArenaVector<PredSet>& candidates) {
  // Lines 9-17: non-separable — try every atomic decomposition
  // Sel(P'|Q) * Sel(Q) whose factor some SIT could approximate
  // (decomposer.h explains the candidate order, which first-seen-wins
  // tie-breaking makes load-bearing).
  MemoEntry entry;
  entry.kind = MemoEntryKind::kAtomic;
  double best_error = kInfiniteError;
  PredSet best_p_prime = 0;
  FactorChoice best_choice;

  for (PredSet p_prime : candidates) {
    // Stop scoring further candidates once the budget runs out mid-loop;
    // whatever has been found so far (possibly nothing) decides below.
    if (BudgetExhausted(budget_, stats_, deadline_)) {
      stats_.budget_exhausted = true;
      break;
    }
    const PredSet q = p & ~p_prime;
    // Line 11: solve the tail before scoring so the merged error is
    // available.
    const MemoEntry& qe = ComputeEntry(q);
    // The recursion may have spent the budget; re-check before charging
    // another decomposition so the cap stays tight at every level.
    if (BudgetExhausted(budget_, stats_, deadline_)) {
      stats_.budget_exhausted = true;
      break;
    }
    // Counted live, before scoring: every budget check, in this loop and
    // down the recursion, sees it, so the cap is a hard ceiling.
    ++stats_.atomic_considered;
    FactorChoice choice =
        provider_->Score(*query_, p_prime, q, &deadline_, &scratch_);
    if (!choice.feasible) continue;
    const double merged = ErrorFunction::Merge(choice.error, qe.error);
    if (merged < best_error) {
      best_error = merged;
      best_p_prime = p_prime;
      best_choice = std::move(choice);
    }
  }

  if (best_p_prime == 0) {
    // No feasible decomposition — a pool without base histograms for some
    // referenced column (the Try* API reports this up front), or a budget
    // that expired before the first candidate. Degrade instead of
    // aborting: the estimate must still be produced. The entry was already
    // charged to subproblems, which is why the recorded reason is
    // "no feasible decomposition" even when the budget expired mid-loop —
    // the search did run on this entry.
    return DegradedEntry(p, FallbackReason::kNoFeasibleDecomposition);
  }

  // Lines 16-17: estimate the winning factor with its chosen SITs
  // (histogram manipulation) and combine with the tail's estimate.
  const double factor_sel = EstimateFactor(best_p_prime, best_choice);
  // A memo hit: the tail was solved when the winner scored.
  const MemoEntry& tail = ComputeEntry(p & ~best_p_prime);

  entry.best_p_prime = best_p_prime;
  entry.choice = std::move(best_choice);
  entry.factor_selectivity = factor_sel;
  entry.error = best_error;
  entry.selectivity = SanitizeSelectivity(factor_sel * tail.selectivity);
  return entry;
}

CONDSEL_HOT const MemoEntry& GetSelectivity::ComputeEntry(PredSet p) {
  if (const MemoEntry* hit = memo_.Find(p)) {
    ++stats_.memo_hits;
    return *hit;
  }

  if (p == 0) {
    MemoEntry entry;
    entry.kind = MemoEntryKind::kEmpty;
    entry.selectivity = 1.0;
    entry.error = 0.0;
    RecordEntry(p, entry);
    return memo_.Insert(p, std::move(entry));
  }

  // Budget gate: once any knob runs out, every *new* subset is answered by
  // the independence fallback instead of growing the search. Memoized
  // entries keep serving their (more accurate) results. Degraded entries
  // count in degraded_subproblems, not subproblems, so the cap bounds the
  // entries the search actually works on.
  if (BudgetExhausted(budget_, stats_, deadline_)) {
    stats_.budget_exhausted = true;
    MemoEntry entry = DegradedEntry(p, FallbackReason::kBudgetExhausted);
    RecordEntry(p, entry);
    return memo_.Insert(p, std::move(entry));
  }
  ++stats_.subproblems;

  const ComponentList components = StandardDecompositionFast(*query_, p);
  if (components.size() > 1) {
    // Lines 3-7: separable — solve the standard decomposition's factors
    // independently; Property 2 makes the product exact.
    MemoEntry entry;
    entry.kind = MemoEntryKind::kSeparable;
    entry.components = components;
    double sel = 1.0;
    double err = 0.0;
    for (PredSet comp : components) {
      const MemoEntry& ce = ComputeEntry(comp);
      sel *= ce.selectivity;
      err = ErrorFunction::Merge(err, ce.error);
    }
    entry.selectivity = SanitizeSelectivity(sel);
    entry.error = err;
    RecordEntry(p, entry);
    return memo_.Insert(p, std::move(entry));
  }
  // Candidates live in the per-Compute arena: the list is consumed within
  // this frame (SolveNonSeparable iterates it; the recursion below builds
  // its own lists further down the same arena) and dies at the next
  // Compute()'s Reset.
  ArenaVector<PredSet> candidates(&arena_);
  EnumerateCandidates(p, &candidates);
  MemoEntry entry = SolveNonSeparable(p, candidates);
  RecordEntry(p, entry);
  return memo_.Insert(p, std::move(entry));
}

std::string GetSelectivity::Explain(PredSet p) const {
  std::string out;
  if (stats_.budget_exhausted) {
    out += "[budget exhausted: " +
           std::to_string(stats_.degraded_subproblems) +
           " subset(s) degraded to the independence fallback]\n";
  }
  ExplainRec(p, 0, &out);
  return out;
}

void GetSelectivity::ExplainRec(PredSet p, int indent,
                                std::string* out) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const MemoEntry* it = memo_.Find(p);
  if (it == nullptr) {
    *out += pad + "(not computed)\n";
    return;
  }
  const MemoEntry& e = *it;
  char buf[128];
  switch (e.kind) {
    case MemoEntryKind::kEmpty:
      *out += pad + "Sel() = 1\n";
      break;
    case MemoEntryKind::kSeparable:
      std::snprintf(buf, sizeof(buf),
                    "separable: sel=%.6g err=%.4g, %zu components\n",
                    e.selectivity, e.error, e.components.size());
      *out += pad + buf;
      for (PredSet comp : e.components) ExplainRec(comp, indent + 1, out);
      break;
    case MemoEntryKind::kDegraded:
      std::snprintf(buf, sizeof(buf),
                    "degraded: sel=%.6g via independence fallback over %d "
                    "predicate(s)\n",
                    e.selectivity, SetSize(p));
      *out += pad + buf;
      // Name the statistic (or the reason none exists) behind each atom.
      for (int i : SetElements(p)) {
        const DerivationAtom* atom = memo_.FindAtom(i);
        if (atom == nullptr) continue;
        const FactorProvenance& prov = atom->sit.provenance;
        if (atom->has_stat) {
          std::snprintf(buf, sizeof(buf), "  p%d: sel=%.6g from %s ", i,
                        atom->selectivity, prov.histogram_kind.c_str());
          *out += pad + buf + prov.source;
          std::snprintf(buf, sizeof(buf), " (%d bucket(s))\n",
                        prov.buckets_touched);
          *out += buf;
        } else {
          *out +=
              pad + "  p" + std::to_string(i) + ": default 1";
          if (!prov.fallback.empty()) *out += " (" + prov.fallback + ")";
          *out += "\n";
        }
      }
      break;
    case MemoEntryKind::kAtomic: {
      std::snprintf(buf, sizeof(buf), "sel=%.6g err=%.4g, factor ",
                    e.selectivity, e.error);
      *out += pad + buf;
      *out += FactorToString(*query_,
                             Factor{e.best_p_prime, p & ~e.best_p_prime});
      *out += " via {";
      for (size_t i = 0; i < e.choice.sits.size(); ++i) {
        if (i > 0) *out += ", ";
        char sbuf[64];
        std::snprintf(sbuf, sizeof(sbuf), "sit#%d(diff=%.3f)",
                      e.choice.sits[i].sit->id, e.choice.sits[i].sit->diff);
        *out += sbuf;
      }
      *out += "}\n";
      // Provenance of the chosen statistics, from the provider's memoized
      // decision (no re-estimation).
      const std::vector<FactorProvenance> provenance =
          provider_->Describe(*query_, e.best_p_prime, e.choice);
      for (const FactorProvenance& prov : provenance) {
        if (!prov.recorded) continue;
        *out += pad + "  stat: " + prov.histogram_kind + " " + prov.source;
        std::snprintf(buf, sizeof(buf), " (%d bucket(s))\n",
                      prov.buckets_touched);
        *out += buf;
      }
      ExplainRec(p & ~e.best_p_prime, indent + 1, out);
      break;
    }
  }
}

}  // namespace condsel
