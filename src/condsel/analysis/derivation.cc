#include "condsel/analysis/derivation.h"

#include <cstdio>

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

}  // namespace

const char* DerivKindName(DerivKind kind) {
  switch (kind) {
    case DerivKind::kEmptySet:
      return "empty";
    case DerivKind::kSeparableSplit:
      return "separable-split";
    case DerivKind::kConditionalFactor:
      return "conditional-factor";
    case DerivKind::kPredicateProduct:
      return "predicate-product";
  }
  return "?";
}

DerivationNode& DerivationDag::AddNode(PredSet subset) {
  nodes_.emplace_back();
  nodes_.back().subset = subset;
  // The index keeps each subset's first node; duplicates stay in nodes_.
  if (!by_subset_.contains(subset)) by_subset_[subset] = nodes_.size() - 1;
  return nodes_.back();
}

const DerivationNode* DerivationDag::Find(PredSet subset) const {
  auto it = by_subset_.find(subset);
  return it == by_subset_.end() ? nullptr : &nodes_[it->second];
}

std::string DerivationDag::ToString(const Query& query) const {
  (void)query;  // reserved for predicate pretty-printing
  std::string out;
  char buf[160];
  for (const DerivationNode& n : nodes_) {
    std::snprintf(buf, sizeof(buf), "%s %s sel=%.6g err=%.4g",
                  MaskToString(n.subset).c_str(), DerivKindName(n.kind),
                  n.selectivity, n.error);
    out += buf;
    switch (n.kind) {
      case DerivKind::kEmptySet:
        break;
      case DerivKind::kSeparableSplit:
        out += "  parts:";
        for (PredSet t : n.tails) out += " " + MaskToString(t);
        break;
      case DerivKind::kConditionalFactor:
        std::snprintf(buf, sizeof(buf), "  head=%s sel=%.6g",
                      MaskToString(n.head).c_str(), n.head_selectivity);
        out += buf;
        out += " tails:";
        for (PredSet t : n.tails) out += " " + MaskToString(t);
        for (const SitApplication& s : n.sits) {
          std::snprintf(buf, sizeof(buf), "  sit#%d hyp=%s cond=%s",
                        s.sit_id, MaskToString(s.hypothesis).c_str(),
                        MaskToString(s.conditioning).c_str());
          out += buf;
          if (s.provenance.recorded) {
            std::snprintf(buf, sizeof(buf), " [%s %s, %d bucket(s)]",
                          s.provenance.histogram_kind.c_str(),
                          s.provenance.source.c_str(),
                          s.provenance.buckets_touched);
            out += buf;
          }
        }
        break;
      case DerivKind::kPredicateProduct:
        if (n.fallback == FallbackReason::kBudgetExhausted) {
          out += "  [budget fallback]";
        } else if (n.fallback == FallbackReason::kNoFeasibleDecomposition) {
          out += "  [no-feasible fallback]";
        }
        for (const DerivationAtom& a : n.atoms) {
          std::snprintf(buf, sizeof(buf), "  p%d=%.6g%s", a.pred,
                        a.selectivity, a.has_stat ? "" : " (default)");
          out += buf;
        }
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace condsel
