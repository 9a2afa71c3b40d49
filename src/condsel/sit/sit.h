// SIT: a statistic (histogram) built on a query expression [4, 26].
//
// SIT_R(a | q1, .., qk) is a histogram over attribute `a` computed on the
// result of sigma_{q1 ^ .. ^ qk}(R^x). The expression predicates are stored
// as a canonical (sorted) predicate list over the catalog, so a SIT can be
// matched against any query that syntactically contains them. An empty
// expression makes the SIT an ordinary base-table histogram.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "condsel/catalog/schema.h"
#include "condsel/histogram/histogram.h"
#include "condsel/histogram/histogram2d.h"
#include "condsel/query/predicate.h"
#include "condsel/storage/part.h"

namespace condsel {

class Catalog;

using SitId = int32_t;

// One part's contribution to a partitioned SIT: the same statistic
// restricted to the rows of part `part` (at `generation`) of the owning
// table — always attr.table, whose parts partition the expression result.
// Pieces are unidimensional; the histogram's source_cardinality carries
// its merge weight.
struct SitPart {
  PartId part = kInvalidPartId;
  uint64_t generation = 0;
  Histogram histogram;
};

struct Sit {
  SitId id = -1;
  ColumnRef attr;
  // Second attribute of a multidimensional SIT — SIT_R(a, b | Q), the
  // attribute-set form of Section 3.3. Unset (invalid table) for the
  // common unidimensional case. Canonicalized so attr <= attr2.
  ColumnRef attr2;
  // Canonical (sorted) generating expression; join predicates in the
  // paper's pools, but arbitrary predicates are supported.
  std::vector<Predicate> expression;
  Histogram histogram;      // unidimensional SITs
  Histogram2d histogram2d;  // multidimensional SITs
  // Per-part pieces of a partitioned SIT (catalog/part_stats.h), in the
  // owning table's part order. Empty for an unpartitioned SIT — every
  // consumer then reads the flat histogram exactly as before, which is
  // what keeps single-part databases bit-identical. When pieces are
  // present, `histogram` holds the cardinality-weighted merged summary
  // (introspection, and the estimate when every piece is empty);
  // selectivity estimation merges the pieces directly
  // (AtomicSelectivityProvider).
  std::vector<SitPart> parts;
  // For unidimensional SITs: the Section 3.5 divergence between the base
  // distribution of `attr` and its distribution on the expression result
  // (0 for base histograms by definition). For multidimensional SITs:
  // the divergence between the joint distribution and the product of its
  // marginals — the correlation mass only this SIT can capture.
  double diff = 0.0;

  bool is_base() const { return expression.empty(); }
  bool is_multidim() const { return attr2.table != kInvalidTableId; }
  bool is_partitioned() const { return !parts.empty(); }
  std::string ToString(const Catalog& catalog) const;
};

}  // namespace condsel

