// DerivationAuditor — static verification of a recorded derivation.
//
// Audits a DerivationDag (analysis/derivation.h) against the invariant
// catalogue below *without re-running estimation*: every check is a pure
// function of the recorded nodes, the query's join graph, and (optionally)
// the search's GsStats. A clean audit certifies that the estimate was
// assembled by sound probability algebra — every conditional
// factorization partitions its predicate set, every separability split is
// licensed by the join graph, every statistic's hypothesis set is
// consistent with its conditioning set — independent of whether the
// numbers themselves are accurate.
//
// Invariant catalogue (check slugs appear in violations, docs, and tests):
//   structure              node shape matches its kind (empty ⇒ subset ∅,
//                          fallback reasons only on product nodes, ...)
//   finite-range           every selectivity and factor is finite, in [0,1]
//   partition              head/components exactly partition the subset:
//                          non-empty where required, pairwise disjoint,
//                          union equals the parent (s(p∧q) = s(p|q)·s(q)
//                          must consume each predicate exactly once)
//   separability           split components are non-interacting under the
//                          join graph (pairwise table-disjoint); standard
//                          splits must equal Lemma 2's connected components
//   hypothesis-consistency a statistic's hypothesis set Q' is a subset of
//                          its conditioning set Q, the conditioning set is
//                          exactly subset ∖ head, and base histograms carry
//                          an empty hypothesis (Section 2.2)
//   product-consistency    the node's selectivity equals the product its
//                          kind claims (head · tails, Π components, Π atoms)
//                          up to SanitizeSelectivity clamping and tolerance
//   memo-consistency       the same subset never carries two different
//                          selectivities anywhere in the DAG
//   dangling-reference     every referenced child subset has a node
//   stats-reconciliation   GsStats degradation counters match the DAG's
//                          recorded fallback nodes — only when stats given
//   provenance             every statistic application and fallback atom
//                          names the provider decision behind it (recorded
//                          FactorProvenance with source + histogram kind,
//                          or the reason no statistic applied)

#pragma once

#include <string>
#include <vector>

#include "condsel/analysis/derivation.h"
#include "condsel/selectivity/get_selectivity.h"

namespace condsel {

enum class AuditCheck {
  kStructure,
  kFiniteRange,
  kPartition,
  kSeparability,
  kHypothesisConsistency,
  kProductConsistency,
  kMemoConsistency,
  kDanglingReference,
  kStatsReconciliation,
  kProvenance,
};

const char* AuditCheckName(AuditCheck check);

struct AuditViolation {
  AuditCheck check = AuditCheck::kStructure;
  PredSet subset = 0;      // the node the violation anchors to
  std::string detail;      // what exactly is inconsistent
  std::string path;        // DAG path from a derivation root to `subset`
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  size_t nodes_checked = 0;

  bool ok() const { return violations.empty(); }
  bool Has(AuditCheck check) const;
  // Violations of one check (the mutation self-test asserts exact counts).
  size_t Count(AuditCheck check) const;
  // Human-readable report: one block per violation with its DAG path.
  std::string ToString() const;
};

struct AuditOptions {
  // Relative tolerance for product-consistency (floating products are
  // re-associated between recording and checking).
  double tolerance = 1e-9;
};

class DerivationAuditor {
 public:
  explicit DerivationAuditor(AuditOptions options = {});

  // Structural + algebraic audit of the whole DAG.
  AuditReport Audit(const Query& query, const DerivationDag& dag) const;

  // Same, plus reconciliation of `stats` degradation counters against the
  // DAG's fallback nodes. Only meaningful for a getSelectivity session's
  // DAG (the counters are that search's).
  AuditReport Audit(const Query& query, const DerivationDag& dag,
                    const GsStats& stats) const;

 private:
  AuditOptions options_;
};

}  // namespace condsel
