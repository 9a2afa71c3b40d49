#include "condsel/selectivity/atomic_provider.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "condsel/common/fault_injector.h"
#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/histogram/histogram_join.h"

namespace condsel {
namespace {

std::string ColumnName(ColumnRef c) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "T%d.c%d", c.table, c.column);
  return buf;
}

// "T2.c1" for base histograms, "T2.c1 | T0.c0 = T1.c1 ^ ..." for SITs.
std::string SitSource(const Sit& sit) {
  std::string s = ColumnName(sit.attr);
  if (sit.is_multidim()) s += "," + ColumnName(sit.attr2);
  if (!sit.expression.empty()) {
    s += " |";
    for (size_t i = 0; i < sit.expression.size(); ++i) {
      s += (i == 0 ? " " : " ^ ") + sit.expression[i].ToString();
    }
  }
  return s;
}

int BucketsInRange(const Histogram& h, int64_t lo, int64_t hi) {
  int n = 0;
  for (const Bucket& b : h.buckets()) {
    if (b.hi >= lo && b.lo <= hi) ++n;
  }
  return n;
}

// Visits (histogram, merge weight) for every piece of a partitioned SIT,
// or the flat histogram with weight 1.0 for an unpartitioned one. The
// weight is the piece's share of the statistic's source cardinality: the
// pieces describe disjoint slices of the expression result, so the
// result's distribution is exactly their cardinality-weighted mixture.
// The single-piece case multiplies by the literal 1.0 and accumulates
// into 0.0, both exact in IEEE arithmetic — which is what keeps
// unpartitioned (and single-part) databases bit-identical to the
// pre-partitioning estimates through the shared loops below.
template <typename Fn>
CONDSEL_HOT void ForEachPiece(const Sit& sit, Fn&& fn) {
  if (!sit.is_partitioned()) {
    fn(sit.histogram, 1.0);
    return;
  }
  double total = 0.0;
  for (const SitPart& p : sit.parts) {
    total += p.histogram.source_cardinality();
  }
  if (!(total > 0.0)) {
    // All-empty pieces (or corrupt cardinalities already rejected
    // upstream): fall back to the merged summary.
    fn(sit.histogram, 1.0);
    return;
  }
  for (const SitPart& p : sit.parts) {
    fn(p.histogram, p.histogram.source_cardinality() / total);
  }
}

// Sum of per-piece buckets a range lookup reads (provenance accounting).
int BucketsInRangeMerged(const Sit& sit, int64_t lo, int64_t hi) {
  int n = 0;
  ForEachPiece(sit, [&](const Histogram& h, double) {
    n += BucketsInRange(h, lo, hi);
  });
  return n;
}

int NumPieces(const Sit& sit) {
  return static_cast<int>(sit.parts.size());
}

int BucketsInRange2d(const Histogram2d& h, int64_t x_lo, int64_t x_hi,
                     int64_t y_lo, int64_t y_hi) {
  int n = 0;
  for (const Bucket2d& b : h.buckets()) {
    if (b.x_hi >= x_lo && b.x_lo <= x_hi && b.y_hi >= y_lo &&
        b.y_lo <= y_hi) {
      ++n;
    }
  }
  return n;
}

FactorProvenance MakeProvenance(const Sit& sit, const char* kind,
                                int buckets) {
  FactorProvenance prov;
  prov.recorded = true;
  prov.source = SitSource(sit);
  prov.histogram_kind = kind;
  prov.buckets_touched = buckets;
  prov.merged_parts = NumPieces(sit);
  return prov;
}

// The cold-statistics-storage fault: one bounded stall per provider
// lookup, so deadline tests can measure enforcement granularity. The
// stall is scoped to factors intersecting the injector's predicate mask,
// letting tests make a chosen slice of the lattice pathologically slow.
void MaybeInjectSlowLookup(PredSet p) {
  const FaultInjector& fi = FaultInjector::Instance();
  if (fi.armed() && fi.enabled(Fault::kSlowAtomicLookup) &&
      (p & fi.slow_lookup_mask()) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

AtomicSelectivityProvider::AtomicSelectivityProvider(
    SitMatcher* matcher, const ErrorFunction* error_fn)
    : matcher_(matcher), error_fn_(error_fn) {
  CONDSEL_CHECK(matcher != nullptr);
  CONDSEL_CHECK(error_fn != nullptr);
}

bool AtomicSelectivityProvider::SplitShape(const Query& query, PredSet p,
                                           int* join_pred, int filter_preds[],
                                           int* num_filters) const {
  *join_pred = -1;
  *num_filters = 0;
  for (int i : SetBits(p)) {
    const Predicate& pred = query.predicate(i);
    if (pred.is_join()) {
      if (*join_pred >= 0) return false;  // at most one join
      *join_pred = i;
    } else {
      filter_preds[(*num_filters)++] = i;
    }
  }
  if (*join_pred < 0) {
    // Pure filters: a single filter (unidimensional SIT) or a pair of
    // filters (multidimensional SIT over the attribute pair).
    return *num_filters == 1 || *num_filters == 2;
  }
  // Join plus filters: every filter must be over one of the join columns
  // (Example 3: the join's result histogram covers exactly that
  // attribute).
  const Predicate& j = query.predicate(*join_pred);
  for (int k = 0; k < *num_filters; ++k) {
    const ColumnRef c = query.predicate(filter_preds[k]).column();
    if (c != j.left() && c != j.right()) return false;
  }
  return true;
}

bool AtomicSelectivityProvider::SupportedShape(const Query& query,
                                               PredSet p) const {
  if (p == 0) return false;
  int join_pred;
  int filters[kMaxPredicates];
  int num_filters;
  return SplitShape(query, p, &join_pred, filters, &num_filters);
}

CONDSEL_HOT FactorChoice AtomicSelectivityProvider::Score(
    const Query& query, PredSet p, PredSet cond, const Deadline* deadline,
    ScoreScratch* scratch) {
  // The throwing-lookup fault fires only on the public scoring path:
  // BaseAtom goes straight to ScoreImpl, so the independence fallback —
  // the degradation target — survives the fault, mirroring the deadline
  // exemption.
  const FaultInjector& fi = FaultInjector::Instance();
  if (fi.armed() && fi.enabled(Fault::kThrowAtomicLookup)) {
    throw TransientFault("injected: statistics lookup failed");
  }
  return ScoreImpl(query, p, cond, deadline, scratch);
}

CONDSEL_HOT FactorChoice AtomicSelectivityProvider::ScoreImpl(
    const Query& query, PredSet p, PredSet cond, const Deadline* deadline,
    ScoreScratch* scratch) {
  MaybeInjectSlowLookup(p);
  FactorChoice best;
  int join_pred;
  int filters[kMaxPredicates];
  int num_filters;
  if (!SplitShape(query, p, &join_pred, filters, &num_filters)) return best;

  // Section 3.4's pruning: a join factor conditioned on filter predicates
  // has no SIT that could reflect them (join columns carry only base
  // histograms), so the approximation would be the plain unconditioned
  // join estimate wearing a deceptively low assumption count — the exact
  // decompositions the paper's example "safely discards". Join factors
  // are therefore only approximable under join-only conditioning.
  if (join_pred >= 0 && (cond & query.filter_predicates()) != 0) {
    return best;
  }

  // Callers off the hot path score with call-local lists; drivers pass a
  // reused scratch and amortize the capacity across the whole search.
  ScoreScratch local;
  if (scratch == nullptr) scratch = &local;

  const bool needs_estimate = error_fn_->NeedsEstimate();

  auto consider = [&](const SitVec& sits) {
    double estimate = -1.0;
    if (needs_estimate) {
      estimate = EstimateWith(query, p, sits, /*provenance=*/nullptr);
    }
    const double err =
        error_fn_->FactorError(query, p, cond, sits, estimate);
    // Deterministic tie-break: prefer heavier conditioning (larger Q').
    auto q_prime_size = [&](const SitVec& ss) {
      PredSet m = 0;
      for (const SitCandidate& c : ss) m |= c.expr_mask;
      return SetSize(m & cond);
    };
    if (err < best.error ||
        (err == best.error && best.feasible &&
         q_prime_size(sits) > q_prime_size(best.sits))) {
      best.feasible = true;
      best.error = err;
      best.estimate = estimate;
      best.sits = sits;
    }
  };
  // Deadline enforcement at lookup granularity: stop examining further
  // candidates the moment the budget's clock runs out. On unbudgeted runs
  // (deadline detached or disarmed) this never fires, keeping scoring a
  // pure function of the candidate lists.
  auto expired = [&] {
    return deadline != nullptr && deadline->Expired();
  };

  if (join_pred < 0 && num_filters == 2) {
    // Filter pair: needs a multidimensional SIT over both attributes.
    const Predicate& fa = query.predicate(filters[0]);
    const Predicate& fb = query.predicate(filters[1]);
    matcher_->Candidates2Into(fa.column(), fb.column(), cond,
                              SitMatcher::CallAccounting::kIndexed,
                              &scratch->left);
    for (const SitCandidate& c : scratch->left) {
      if (expired()) break;
      consider({c});
    }
  } else if (join_pred < 0) {
    // Single filter.
    const Predicate& f = query.predicate(filters[0]);
    matcher_->CandidatesInto(f.column(), cond,
                             SitMatcher::CallAccounting::kIndexed,
                             &scratch->left);
    for (const SitCandidate& c : scratch->left) {
      if (expired()) break;
      consider({c});
    }
  } else {
    // One join (plus optional filters on its columns): pick one SIT per
    // side, try all maximal pairs.
    const Predicate& j = query.predicate(join_pred);
    matcher_->CandidatesInto(j.left(), cond,
                             SitMatcher::CallAccounting::kIndexed,
                             &scratch->left);
    matcher_->CandidatesInto(j.right(), cond,
                             SitMatcher::CallAccounting::kIndexed,
                             &scratch->right);
    for (const SitCandidate& cl : scratch->left) {
      if (expired()) break;
      for (const SitCandidate& cr : scratch->right) {
        if (expired()) break;
        consider({cl, cr});
      }
    }
  }
  return best;
}

CONDSEL_HOT double AtomicSelectivityProvider::EstimateWith(
    const Query& query, PredSet p, const SitVec& sits,
    std::vector<FactorProvenance>* provenance) const {
  int join_pred;
  int filters[kMaxPredicates];
  int num_filters;
  CONDSEL_CHECK(SplitShape(query, p, &join_pred, filters, &num_filters));

  if (join_pred < 0 && num_filters == 2) {
    CONDSEL_CHECK(sits.size() == 1);
    const Sit& sit = *sits[0].sit;
    CONDSEL_CHECK(sit.is_multidim());
    const Predicate& fa = query.predicate(filters[0]);
    const Predicate& fb = query.predicate(filters[1]);
    // Order the ranges by the SIT's canonical (attr, attr2) order.
    const bool a_first = fa.column() == sit.attr;
    const Predicate& fx = a_first ? fa : fb;
    const Predicate& fy = a_first ? fb : fa;
    if (provenance != nullptr) {
      provenance->push_back(MakeProvenance(
          sit, "sit-2d",
          BucketsInRange2d(sit.histogram2d, fx.lo(), fx.hi(), fy.lo(),
                           fy.hi())));
    }
    return SanitizeSelectivity(sit.histogram2d.RangeSelectivity(
        fx.lo(), fx.hi(), fy.lo(), fy.hi()));
  }
  if (join_pred < 0) {
    CONDSEL_CHECK(sits.size() == 1);
    const Sit& sit = *sits[0].sit;
    const Predicate& f = query.predicate(filters[0]);
    if (provenance != nullptr) {
      provenance->push_back(
          MakeProvenance(sit, sit.is_base() ? "base" : "sit-1d",
                         BucketsInRangeMerged(sit, f.lo(), f.hi())));
    }
    // Partitioned filter estimate: the pieces partition the source
    // relation, so the selectivity is the cardinality-weighted sum of
    // per-piece selectivities (one term with weight 1.0 when
    // unpartitioned — the legacy lookup, bit for bit).
    double sel = 0.0;
    ForEachPiece(sit, [&](const Histogram& h, double w) {
      sel += w * h.RangeSelectivity(f.lo(), f.hi());
    });
    return SanitizeSelectivity(sel);
  }

  CONDSEL_CHECK(sits.size() == 2);
  const Sit& s0 = *sits[0].sit;
  const Sit& s1 = *sits[1].sit;
  // Partitioned join estimate: |R ⋈ S| = Σ_pq |R_p ⋈ S_q|, so the join
  // selectivity (fraction of the cross product) is Σ_pq w_p w_q sel_pq.
  // Remaining filters over the join attribute apply per pair on that
  // pair's result histogram (Example 3), which keeps the filter factor
  // aligned with the piece pair it restricts. An unpartitioned side is a
  // single pseudo-piece of weight 1.0, so the unpartitioned ×
  // unpartitioned case reproduces the legacy computation exactly.
  double sel = 0.0;
  ForEachPiece(s0, [&](const Histogram& h0, double w0) {
    ForEachPiece(s1, [&](const Histogram& h1, double w1) {
      const JoinEstimate je = JoinHistograms(h0, h1);
      double pair_sel = je.selectivity;
      for (int k = 0; k < num_filters; ++k) {
        const Predicate& fp = query.predicate(filters[k]);
        pair_sel *= je.result.RangeSelectivity(fp.lo(), fp.hi());
      }
      sel += w0 * w1 * pair_sel;
    });
  });
  if (provenance != nullptr) {
    // A histogram join walks every aligned bucket pair of its inputs
    // (summed across pieces for a partitioned side).
    for (const SitCandidate& c : sits) {
      int buckets = 0;
      ForEachPiece(*c.sit, [&](const Histogram& h, double) {
        buckets += static_cast<int>(h.buckets().size());
      });
      provenance->push_back(MakeProvenance(*c.sit, "join-input", buckets));
    }
  }
  return SanitizeSelectivity(sel);
}

CONDSEL_HOT double AtomicSelectivityProvider::Estimate(
    const Query& query, PredSet p, const FactorChoice& choice,
    std::vector<FactorProvenance>* provenance) const {
  CONDSEL_CHECK(choice.feasible);
  if (choice.estimate >= 0.0) {
    // Score() already computed the value (Opt ranking); only the
    // description is (re)derived here.
    if (provenance != nullptr) {
      std::vector<FactorProvenance> described = Describe(query, p, choice);
      provenance->insert(provenance->end(), described.begin(),
                         described.end());
    }
    return choice.estimate;
  }
  return EstimateWith(query, p, choice.sits, provenance);
}

std::vector<FactorProvenance> AtomicSelectivityProvider::Describe(
    const Query& query, PredSet p, const FactorChoice& choice) const {
  std::vector<FactorProvenance> out;
  if (!choice.feasible) return out;
  int join_pred;
  int filters[kMaxPredicates];
  int num_filters;
  CONDSEL_CHECK(SplitShape(query, p, &join_pred, filters, &num_filters));
  if (join_pred < 0 && num_filters == 2) {
    const Sit& sit = *choice.sits[0].sit;
    const Predicate& fa = query.predicate(filters[0]);
    const Predicate& fb = query.predicate(filters[1]);
    const bool a_first = fa.column() == sit.attr;
    const Predicate& fx = a_first ? fa : fb;
    const Predicate& fy = a_first ? fb : fa;
    out.push_back(MakeProvenance(
        sit, "sit-2d",
        BucketsInRange2d(sit.histogram2d, fx.lo(), fx.hi(), fy.lo(),
                         fy.hi())));
  } else if (join_pred < 0) {
    const Sit& sit = *choice.sits[0].sit;
    const Predicate& f = query.predicate(filters[0]);
    out.push_back(MakeProvenance(sit, sit.is_base() ? "base" : "sit-1d",
                                 BucketsInRangeMerged(sit, f.lo(),
                                                      f.hi())));
  } else {
    for (const SitCandidate& c : choice.sits) {
      int buckets = 0;
      ForEachPiece(*c.sit, [&](const Histogram& h, double) {
        buckets += static_cast<int>(h.buckets().size());
      });
      out.push_back(MakeProvenance(*c.sit, "join-input", buckets));
    }
  }
  return out;
}

DerivationAtom AtomicSelectivityProvider::BaseAtom(const Query& query,
                                                   int pred, bool describe) {
  // Conditioning on the empty set restricts the matcher to base histograms
  // (expr ⊆ ∅): exactly the traditional noSit estimate for this predicate.
  // Scored with no deadline: this is the degradation target itself, so it
  // must stay available after the budget's clock has expired.
  FactorChoice choice = ScoreImpl(query, 1u << pred, /*cond=*/0,
                                  /*deadline=*/nullptr);
  DerivationAtom atom;
  atom.pred = pred;
  if (choice.feasible) {
    std::vector<FactorProvenance> prov;
    atom.selectivity = SanitizeSelectivity(Estimate(
        query, 1u << pred, choice, describe ? &prov : nullptr));
    atom.has_stat = true;
    const SitCandidate& cand = choice.sits.front();
    atom.sit.sit_id = cand.sit->id;
    atom.sit.is_base = cand.sit->is_base();
    atom.sit.hypothesis = cand.expr_mask;
    atom.sit.conditioning = 0;
    if (describe) atom.sit.provenance = std::move(prov.front());
  } else {
    // No base histogram: contribute no information rather than abort. The
    // neutral 1.0 never understates a cardinality, the safe direction for
    // an optimizer that must still produce a plan.
    atom.sit.provenance.recorded = true;
    atom.sit.provenance.fallback = "no base histogram for the column";
  }
  return atom;
}

std::vector<SitCandidate> AtomicSelectivityProvider::Candidates(
    ColumnRef attr, PredSet cond, SitMatcher::CallAccounting accounting) {
  // The greedy view-matching path has no factor bitmask; treat it as
  // matching every mask so the stall behaves as before for GVM.
  MaybeInjectSlowLookup(~PredSet{0});
  return matcher_->Candidates(attr, cond, accounting);
}

double AtomicSelectivityProvider::EstimateFilterWith(
    const Query& query, int filter_pred, const SitCandidate& cand,
    FactorProvenance* provenance) const {
  const Predicate& f = query.predicate(filter_pred);
  CONDSEL_CHECK(f.is_filter());
  CONDSEL_CHECK(cand.sit != nullptr);
  if (provenance != nullptr) {
    *provenance = MakeProvenance(
        *cand.sit, cand.sit->is_base() ? "base" : "sit-1d",
        BucketsInRangeMerged(*cand.sit, f.lo(), f.hi()));
  }
  // The raw histogram lookup does not sanitize — clamp here so a corrupted
  // bucket cannot leak a NaN factor into a product (or a recorded
  // derivation).
  double sel = 0.0;
  ForEachPiece(*cand.sit, [&](const Histogram& h, double w) {
    sel += w * h.RangeSelectivity(f.lo(), f.hi());
  });
  return SanitizeSelectivity(sel);
}

}  // namespace condsel
