#include "condsel/analysis/auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "condsel/common/numeric.h"
#include "condsel/query/join_graph.h"

namespace condsel {
namespace {

std::string MaskToString(PredSet s) {
  std::string out = "{";
  bool first = true;
  for (int i : SetElements(s)) {
    if (!first) out += ",";
    out += std::to_string(i);
    first = false;
  }
  out += "}";
  return out;
}

bool BadUnitInterval(double v) {
  return std::isnan(v) || v < 0.0 || v > 1.0;
}

// Collects violations for one audit pass; owns the parent map used to
// reconstruct DAG paths for the report.
class AuditPass {
 public:
  AuditPass(const Query& query, const DerivationDag& dag,
            const AuditOptions& options)
      : query_(query), dag_(dag), options_(options) {
    // First-recorded parent per child subset: enough to print one witness
    // path from a derivation root to any node.
    for (const DerivationNode& n : dag_.nodes()) {
      for (PredSet t : n.tails) {
        if (t != n.subset && parent_.find(t) == parent_.end()) {
          parent_.emplace(t, n.subset);
        }
      }
    }
  }

  AuditReport Run(const GsStats* stats) {
    for (const DerivationNode& n : dag_.nodes()) {
      ++report_.nodes_checked;
      CheckStructure(n);
      CheckFiniteRange(n);
      CheckPartition(n);
      CheckSeparability(n);
      CheckHypotheses(n);
      CheckProvenance(n);
      CheckProduct(n);
    }
    CheckMemoConsistency();
    if (stats != nullptr) CheckStats(*stats);
    return std::move(report_);
  }

 private:
  void Add(AuditCheck check, PredSet subset, std::string detail) {
    AuditViolation v;
    v.check = check;
    v.subset = subset;
    v.detail = std::move(detail);
    v.path = PathTo(subset);
    report_.violations.push_back(std::move(v));
  }

  // Witness path root → ... → subset through the recorded edges.
  std::string PathTo(PredSet subset) const {
    std::vector<PredSet> chain{subset};
    // Bounded climb: a malformed DAG could alias subsets; never loop.
    for (size_t guard = 0; guard <= dag_.size(); ++guard) {
      auto it = parent_.find(chain.back());
      if (it == parent_.end()) break;
      chain.push_back(it->second);
    }
    std::string out;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!out.empty()) out += " -> ";
      out += MaskToString(*it);
    }
    return out;
  }

  void CheckStructure(const DerivationNode& n) {
    switch (n.kind) {
      case DerivKind::kEmptySet:
        if (n.subset != 0) {
          Add(AuditCheck::kStructure, n.subset,
              "empty-set node over a non-empty subset");
        }
        if (!n.tails.empty() || !n.atoms.empty() || !n.sits.empty()) {
          Add(AuditCheck::kStructure, n.subset,
              "empty-set node carries children");
        }
        break;
      case DerivKind::kSeparableSplit:
        if (n.tails.size() < 2) {
          Add(AuditCheck::kStructure, n.subset,
              "separable split into fewer than two parts");
        }
        break;
      case DerivKind::kConditionalFactor:
        if (n.head == 0) {
          Add(AuditCheck::kStructure, n.subset,
              "conditional factorization with an empty head");
        }
        if (n.tails.empty()) {
          Add(AuditCheck::kStructure, n.subset,
              "conditional factorization records no tail");
        }
        break;
      case DerivKind::kPredicateProduct:
        if (n.atoms.empty()) {
          Add(AuditCheck::kStructure, n.subset,
              "predicate product with no atoms");
        }
        break;
    }
    if (n.fallback != FallbackReason::kNone &&
        n.kind != DerivKind::kPredicateProduct) {
      Add(AuditCheck::kStructure, n.subset,
          "fallback reason on a non-product node");
    }
  }

  void CheckFiniteRange(const DerivationNode& n) {
    char buf[96];
    if (BadUnitInterval(n.selectivity)) {
      std::snprintf(buf, sizeof(buf),
                    "node selectivity %.6g outside [0, 1]", n.selectivity);
      Add(AuditCheck::kFiniteRange, n.subset, buf);
    }
    if (std::isnan(n.error) || n.error < 0.0) {
      std::snprintf(buf, sizeof(buf), "node error %.6g is negative or NaN",
                    n.error);
      Add(AuditCheck::kFiniteRange, n.subset, buf);
    }
    if (n.kind == DerivKind::kConditionalFactor &&
        BadUnitInterval(n.head_selectivity)) {
      std::snprintf(buf, sizeof(buf),
                    "factor Sel(%s|...) = %.6g outside [0, 1]",
                    MaskToString(n.head).c_str(), n.head_selectivity);
      Add(AuditCheck::kFiniteRange, n.subset, buf);
    }
    for (const DerivationAtom& a : n.atoms) {
      if (BadUnitInterval(a.selectivity)) {
        std::snprintf(buf, sizeof(buf),
                      "atom p%d selectivity %.6g outside [0, 1]", a.pred,
                      a.selectivity);
        Add(AuditCheck::kFiniteRange, n.subset, buf);
      }
    }
  }

  void CheckPartition(const DerivationNode& n) {
    switch (n.kind) {
      case DerivKind::kEmptySet:
        return;
      case DerivKind::kSeparableSplit: {
        PredSet seen = 0;
        for (PredSet t : n.tails) {
          if (t == 0) {
            Add(AuditCheck::kPartition, n.subset,
                "split component is empty");
          }
          if ((seen & t) != 0) {
            Add(AuditCheck::kPartition, n.subset,
                "split components overlap on " + MaskToString(seen & t));
          }
          seen |= t;
        }
        if (seen != n.subset) {
          Add(AuditCheck::kPartition, n.subset,
              "split components cover " + MaskToString(seen) +
                  ", not the whole subset");
        }
        return;
      }
      case DerivKind::kConditionalFactor: {
        if (!IsSubset(n.head, n.subset)) {
          Add(AuditCheck::kPartition, n.subset,
              "head " + MaskToString(n.head) +
                  " is not a subset of the node");
        }
        PredSet seen = 0;
        for (PredSet t : n.tails) {
          if ((seen & t) != 0) {
            Add(AuditCheck::kPartition, n.subset,
                "tails overlap on " + MaskToString(seen & t));
          }
          seen |= t;
        }
        if ((seen & n.head) != 0) {
          Add(AuditCheck::kPartition, n.subset,
              "head and tails overlap on " + MaskToString(seen & n.head));
        }
        if ((seen | n.head) != n.subset) {
          Add(AuditCheck::kPartition, n.subset,
              "head plus tails cover " + MaskToString(seen | n.head) +
                  ", not the whole subset");
        }
        return;
      }
      case DerivKind::kPredicateProduct: {
        PredSet seen = 0;
        for (const DerivationAtom& a : n.atoms) {
          if (a.pred < 0 || a.pred >= query_.num_predicates()) {
            Add(AuditCheck::kPartition, n.subset,
                "atom references predicate " + std::to_string(a.pred) +
                    " outside the query");
            continue;
          }
          if (Contains(seen, a.pred)) {
            Add(AuditCheck::kPartition, n.subset,
                "predicate " + std::to_string(a.pred) +
                    " appears in two atoms");
          }
          seen = With(seen, a.pred);
        }
        if (seen != n.subset) {
          Add(AuditCheck::kPartition, n.subset,
              "atoms cover " + MaskToString(seen) +
                  ", not the whole subset");
        }
        return;
      }
    }
  }

  void CheckSeparability(const DerivationNode& n) {
    // Property 2 licenses a product across parts only when the parts do
    // not interact: their table sets must be pairwise disjoint. This
    // applies to explicit splits and to the multi-tail form of a
    // conditional factorization (an optimizer memo entry's inputs).
    const bool multi_tail =
        n.kind == DerivKind::kConditionalFactor && n.tails.size() > 1;
    if (n.kind != DerivKind::kSeparableSplit && !multi_tail) return;
    TableSet seen = 0;
    for (PredSet t : n.tails) {
      const TableSet tables = query_.TablesOfSubset(t);
      if ((seen & tables) != 0) {
        Add(AuditCheck::kSeparability, n.subset,
            "parts share tables: the join graph connects " +
                MaskToString(t) + " to an earlier part");
      }
      seen |= tables;
    }
    if (n.kind == DerivKind::kSeparableSplit && n.standard_split) {
      const ComponentList expected = ConnectedComponents(query_, n.subset);
      std::vector<PredSet> got = n.tails;
      std::sort(got.begin(), got.end());
      std::vector<PredSet> want(expected.begin(), expected.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        Add(AuditCheck::kSeparability, n.subset,
            "recorded components differ from the standard decomposition "
            "(Lemma 2) of the subset");
      }
    }
  }

  void CheckHypotheses(const DerivationNode& n) {
    const PredSet conditioning = n.subset & ~n.head;
    for (const SitApplication& s : n.sits) {
      if (n.kind != DerivKind::kConditionalFactor) {
        Add(AuditCheck::kStructure, n.subset,
            "statistic application on a non-factor node");
        continue;
      }
      CheckOneApplication(n.subset, s, conditioning);
    }
    for (const DerivationAtom& a : n.atoms) {
      if (!a.has_stat) continue;
      if (a.pred < 0 || a.pred >= query_.num_predicates()) continue;
      CheckOneApplication(n.subset, a.sit,
                          Without(n.subset, a.pred));
    }
  }

  // `max_conditioning` is the conditioning set the derivation structure
  // implies; the recorded set must match it (factor nodes) or be a subset
  // of it (product atoms condition on at most the rest of the subset).
  void CheckOneApplication(PredSet subset, const SitApplication& s,
                           PredSet max_conditioning) {
    if (!IsSubset(s.conditioning, max_conditioning)) {
      Add(AuditCheck::kHypothesisConsistency, subset,
          "conditioning set " + MaskToString(s.conditioning) +
              " exceeds the structural conditioning " +
              MaskToString(max_conditioning));
    }
    if (!IsSubset(s.hypothesis, s.conditioning)) {
      Add(AuditCheck::kHypothesisConsistency, subset,
          "hypothesis set " + MaskToString(s.hypothesis) +
              " is not a subset of the conditioning set " +
              MaskToString(s.conditioning));
    }
    if (!IsSubset(s.hypothesis, query_.all_predicates())) {
      Add(AuditCheck::kHypothesisConsistency, subset,
          "hypothesis set " + MaskToString(s.hypothesis) +
              " references predicates outside the query");
    }
    if (s.is_base && s.hypothesis != 0) {
      Add(AuditCheck::kHypothesisConsistency, subset,
          "base histogram carries a non-empty hypothesis set " +
              MaskToString(s.hypothesis));
    }
  }

  // Every statistic application must name the provider decision behind
  // it: a recorded FactorProvenance with a source expression and a
  // histogram kind (or, for a stat-less fallback atom, the reason no
  // statistic applied). An unrecorded provenance means some estimator
  // bypassed AtomicSelectivityProvider and touched histograms directly —
  // exactly the private lookup paths this layer exists to eliminate.
  void CheckProvenance(const DerivationNode& n) {
    for (const SitApplication& s : n.sits) {
      if (!s.provenance.recorded) {
        Add(AuditCheck::kProvenance, n.subset,
            "statistic sit#" + std::to_string(s.sit_id) +
                " applied without recorded provenance");
        continue;
      }
      if (s.provenance.source.empty() || s.provenance.histogram_kind.empty()) {
        Add(AuditCheck::kProvenance, n.subset,
            "statistic sit#" + std::to_string(s.sit_id) +
                " has provenance without a source or histogram kind");
      }
    }
    for (const DerivationAtom& a : n.atoms) {
      if (!a.sit.provenance.recorded) {
        Add(AuditCheck::kProvenance, n.subset,
            "atom p" + std::to_string(a.pred) +
                " recorded without provenance");
        continue;
      }
      if (a.has_stat) {
        if (a.sit.provenance.source.empty() ||
            a.sit.provenance.histogram_kind.empty()) {
          Add(AuditCheck::kProvenance, n.subset,
              "atom p" + std::to_string(a.pred) +
                  " has provenance without a source or histogram kind");
        }
      } else if (a.sit.provenance.fallback.empty()) {
        Add(AuditCheck::kProvenance, n.subset,
            "stat-less atom p" + std::to_string(a.pred) +
                " does not state why no statistic applied");
      }
    }
  }

  // Selectivity of a referenced child, reporting dangling references.
  bool ChildSelectivity(const DerivationNode& n, PredSet child,
                        double* out) {
    const DerivationNode* c = dag_.Find(child);
    if (c == nullptr) {
      Add(AuditCheck::kDanglingReference, n.subset,
          "references " + MaskToString(child) +
              ", which was never derived");
      return false;
    }
    *out = c->selectivity;
    return true;
  }

  void CheckProduct(const DerivationNode& n) {
    double expected = 1.0;
    bool complete = true;
    switch (n.kind) {
      case DerivKind::kEmptySet:
        expected = 1.0;
        break;
      case DerivKind::kSeparableSplit:
      case DerivKind::kConditionalFactor: {
        if (n.kind == DerivKind::kConditionalFactor) {
          expected *= n.head_selectivity;
        }
        for (PredSet t : n.tails) {
          double child = 1.0;
          if (!ChildSelectivity(n, t, &child)) {
            complete = false;
            continue;
          }
          expected *= child;
        }
        break;
      }
      case DerivKind::kPredicateProduct:
        for (const DerivationAtom& a : n.atoms) expected *= a.selectivity;
        break;
    }
    if (!complete) return;  // dangling reference already reported
    // Recording mirrors the estimators: every product is clamped through
    // SanitizeSelectivity before it is stored.
    expected = SanitizeSelectivity(expected);
    const double tol =
        options_.tolerance * std::max(1.0, std::abs(expected));
    if (std::isnan(n.selectivity) ||
        std::abs(n.selectivity - expected) > tol) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "recorded selectivity %.9g != derived product %.9g",
                    n.selectivity, expected);
      Add(AuditCheck::kProductConsistency, n.subset, buf);
    }
  }

  void CheckMemoConsistency() {
    std::unordered_map<PredSet, double> first;
    std::set<PredSet> reported;
    for (const DerivationNode& n : dag_.nodes()) {
      auto [it, inserted] = first.emplace(n.subset, n.selectivity);
      if (inserted || reported.count(n.subset) != 0) continue;
      const double tol =
          options_.tolerance * std::max(1.0, std::abs(it->second));
      if (std::abs(n.selectivity - it->second) > tol) {
        char buf[128];
        std::snprintf(
            buf, sizeof(buf),
            "subset derived twice with selectivities %.9g and %.9g",
            it->second, n.selectivity);
        Add(AuditCheck::kMemoConsistency, n.subset, buf);
        reported.insert(n.subset);
      }
    }
  }

  void CheckStats(const GsStats& stats) {
    uint64_t budget_fallbacks = 0;
    uint64_t no_feasible_fallbacks = 0;
    uint64_t searched = 0;  // entries the search actually worked on
    std::set<int> defaulted;
    for (const DerivationNode& n : dag_.nodes()) {
      switch (n.kind) {
        case DerivKind::kEmptySet:
          break;
        case DerivKind::kSeparableSplit:
        case DerivKind::kConditionalFactor:
          ++searched;
          break;
        case DerivKind::kPredicateProduct:
          if (n.fallback == FallbackReason::kBudgetExhausted) {
            ++budget_fallbacks;
          } else if (n.fallback ==
                     FallbackReason::kNoFeasibleDecomposition) {
            // The search charged this entry before discovering no
            // decomposition was approximable.
            ++no_feasible_fallbacks;
            ++searched;
          }
          break;
      }
      for (const DerivationAtom& a : n.atoms) {
        if (!a.has_stat) defaulted.insert(a.pred);
      }
    }
    char buf[160];
    if (stats.degraded_subproblems !=
        budget_fallbacks + no_feasible_fallbacks) {
      std::snprintf(buf, sizeof(buf),
                    "GsStats records %llu degraded subproblems, DAG "
                    "records %llu fallback nodes",
                    static_cast<unsigned long long>(
                        stats.degraded_subproblems),
                    static_cast<unsigned long long>(budget_fallbacks +
                                                    no_feasible_fallbacks));
      Add(AuditCheck::kStatsReconciliation, 0, buf);
    }
    if (stats.subproblems != searched) {
      std::snprintf(
          buf, sizeof(buf),
          "GsStats records %llu searched subproblems, DAG records %llu",
          static_cast<unsigned long long>(stats.subproblems),
          static_cast<unsigned long long>(searched));
      Add(AuditCheck::kStatsReconciliation, 0, buf);
    }
    if (stats.default_fallbacks != defaulted.size()) {
      std::snprintf(buf, sizeof(buf),
                    "GsStats records %llu default fallbacks, DAG records "
                    "%zu predicates with no statistic",
                    static_cast<unsigned long long>(stats.default_fallbacks),
                    defaulted.size());
      Add(AuditCheck::kStatsReconciliation, 0, buf);
    }
    if (budget_fallbacks > 0 && !stats.budget_exhausted) {
      Add(AuditCheck::kStatsReconciliation, 0,
          "DAG records budget fallbacks but GsStats never observed "
          "budget exhaustion");
    }
  }

  const Query& query_;
  const DerivationDag& dag_;
  const AuditOptions& options_;
  AuditReport report_;
  std::unordered_map<PredSet, PredSet> parent_;
};

}  // namespace

const char* AuditCheckName(AuditCheck check) {
  switch (check) {
    case AuditCheck::kStructure:
      return "structure";
    case AuditCheck::kFiniteRange:
      return "finite-range";
    case AuditCheck::kPartition:
      return "partition";
    case AuditCheck::kSeparability:
      return "separability";
    case AuditCheck::kHypothesisConsistency:
      return "hypothesis-consistency";
    case AuditCheck::kProductConsistency:
      return "product-consistency";
    case AuditCheck::kMemoConsistency:
      return "memo-consistency";
    case AuditCheck::kDanglingReference:
      return "dangling-reference";
    case AuditCheck::kStatsReconciliation:
      return "stats-reconciliation";
    case AuditCheck::kProvenance:
      return "provenance";
  }
  return "?";
}

bool AuditReport::Has(AuditCheck check) const { return Count(check) > 0; }

size_t AuditReport::Count(AuditCheck check) const {
  size_t n = 0;
  for (const AuditViolation& v : violations) n += v.check == check;
  return n;
}

std::string AuditReport::ToString() const {
  std::string out;
  char buf[96];
  if (violations.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "audit clean: %zu derivation node(s) verified\n",
                  nodes_checked);
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "audit FAILED: %zu violation(s) over %zu node(s)\n",
                violations.size(), nodes_checked);
  out += buf;
  for (const AuditViolation& v : violations) {
    out += "  [";
    out += AuditCheckName(v.check);
    out += "] at ";
    out += MaskToString(v.subset);
    out += ": " + v.detail + "\n";
    if (!v.path.empty()) out += "      path: " + v.path + "\n";
  }
  return out;
}

DerivationAuditor::DerivationAuditor(AuditOptions options)
    : options_(options) {}

AuditReport DerivationAuditor::Audit(const Query& query,
                                     const DerivationDag& dag) const {
  return AuditPass(query, dag, options_).Run(nullptr);
}

AuditReport DerivationAuditor::Audit(const Query& query,
                                     const DerivationDag& dag,
                                     const GsStats& stats) const {
  return AuditPass(query, dag, options_).Run(&stats);
}

}  // namespace condsel
