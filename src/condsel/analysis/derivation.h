// The derivation DAG: a typed record of the probability algebra behind an
// estimate.
//
// Every estimator in this library produces its answer by composing a small
// set of algebraic steps over conditional selectivities:
//   - a separability split  Sel(P) = Π_i Sel(C_i)      (Property 2),
//   - a conditional factorization  Sel(P) = Sel(P'|Q) · Sel(Q)  (Property 1),
//   - an application of concrete statistics (SITs / base histograms) to a
//     factor Sel(P'|Q), whose hypothesis set Q' ⊆ Q names the predicates
//     the statistic actually accounts for (Section 2.2),
//   - an independence-assumption product over single predicates (the noSit
//     path and the budget-degradation fallback).
// The code trusts these identities; the DAG makes them *checkable*. Each
// estimation path records one node per predicate-subset subproblem, with
// the step that produced its selectivity, and DerivationAuditor
// (analysis/auditor.h) statically verifies the whole derivation without
// re-running estimation.
//
// Recording is optional and off by default: estimators take a nullable
// DerivationDag* and skip all bookkeeping when it is null, so the hot path
// pays one pointer test per memo insert. A recorder must be attached
// before the first estimate of a session — nodes are recorded as memo
// entries are created, so a late attach would leave dangling references
// (which the auditor reports as violations, not crashes).

#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "condsel/query/query.h"

namespace condsel {

// The algebraic step that produced a node's selectivity.
enum class DerivKind {
  kEmptySet,           // Sel(∅) = 1, the recursion's base case
  kSeparableSplit,     // Sel(P) = Π Sel(C_i), table-disjoint components
  kConditionalFactor,  // Sel(P) = Sel(P'|Q) · Sel(Q)
  kPredicateProduct,   // Sel(P) = Π Sel(p_i | C_i), independence across i
};

// Why a kPredicateProduct node exists. Estimators that *choose* the
// independence product (noSit, GVM) record kNone; getSelectivity's
// graceful degradation records which gate forced it, which the auditor
// reconciles against GsStats.
enum class FallbackReason {
  kNone,                      // the estimator's normal algebra
  kBudgetExhausted,           // budget gate fired before the search ran
  kNoFeasibleDecomposition,   // search ran but found no approximable factor
};

const char* DerivKindName(DerivKind kind);

// Where a factor's number actually came from: the provider decision
// behind one statistic application. Filled by AtomicSelectivityProvider
// (selectivity/atomic_provider.h) — the only layer allowed to touch
// histograms — and carried through every recorded derivation so the
// auditor, --explain, and the SIT advisor can name the statistic (or the
// fallback) behind every atomic factor.
struct FactorProvenance {
  bool recorded = false;      // false: the recorder predates the provider
  std::string source;         // statistic description: attr [| expression]
  std::string histogram_kind; // "base", "sit-1d", "sit-2d", "join-input"
  int buckets_touched = 0;    // histogram buckets the estimate read
  int merged_parts = 0;       // partitioned statistic: per-part pieces
                              // merged into this factor (0: unpartitioned)
  std::string fallback;       // non-empty: why no statistic applied
};

// One statistic applied to a factor Sel(head | conditioning). The
// hypothesis set is the statistic's generating expression as a predicate
// mask over the bound query (Q' in Section 2.2): the predicates whose
// effect the statistic genuinely reflects. Soundness requires
// hypothesis ⊆ conditioning — a statistic may account for fewer
// predicates than it is conditioned on (independence is then assumed for
// the rest) but never for predicates outside the conditioning set.
struct SitApplication {
  int sit_id = -1;          // SitPool id; -1 for base histograms
  bool is_base = false;
  PredSet hypothesis = 0;   // Q' — empty for base histograms
  PredSet conditioning = 0; // Q the statistic was matched against
  FactorProvenance provenance;
};

// One predicate estimated in isolation inside a kPredicateProduct.
struct DerivationAtom {
  int pred = -1;
  double selectivity = 1.0;
  bool has_stat = false;    // false: the neutral-1.0 default fallback
  SitApplication sit;       // meaningful only when has_stat
};

struct DerivationNode {
  PredSet subset = 0;
  double selectivity = 1.0;
  double error = 0.0;
  DerivKind kind = DerivKind::kEmptySet;

  // kConditionalFactor: the head factor Sel(head | subset∖head).
  PredSet head = 0;
  double head_selectivity = 1.0;
  std::vector<SitApplication> sits;

  // kSeparableSplit: the component subsets. kConditionalFactor: the tail
  // subset(s) — a single Sel(Q) for the DP, or one per memo-entry input
  // for the optimizer coupling (the inputs factor separably).
  std::vector<PredSet> tails;
  // True when the recorder claims `tails` is the *standard decomposition*
  // (Lemma 2) of `subset`; the auditor then checks exact equality with
  // the join graph's connected components, not just table-disjointness.
  bool standard_split = false;

  // kPredicateProduct.
  std::vector<DerivationAtom> atoms;
  FallbackReason fallback = FallbackReason::kNone;
};

// Append-only store of derivation nodes, indexed by subset. Duplicate
// subsets are representable on purpose: recording the same subproblem
// twice with different selectivities is exactly the memo-consistency bug
// the auditor exists to expose.
class DerivationDag {
 public:
  // Appends a node for `subset` and returns a reference the caller fills
  // in. References stay valid across later Add calls (deque storage).
  DerivationNode& AddNode(PredSet subset);

  // First recorded node for `subset`, or nullptr.
  const DerivationNode* Find(PredSet subset) const;

  bool recorded(PredSet subset) const { return Find(subset) != nullptr; }
  const std::deque<DerivationNode>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  // Human-readable dump (one line per node), for debugging and the CLI.
  std::string ToString(const Query& query) const;

 private:
  std::deque<DerivationNode> nodes_;
  std::unordered_map<PredSet, size_t> by_subset_;  // first node per subset
};

}  // namespace condsel
