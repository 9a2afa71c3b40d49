// Constructs SITs by exact evaluation of their generating expression.
//
// Mirrors how a real system would create statistics on a view: execute (or
// sample) the expression, count the projected attribute's values, build
// the histogram from those counts, and record the diff divergence against
// the base-table distribution (Section 3.5 notes diff is computed once, at
// creation time).
//
// Values are counted, never sorted, through a per-pass column dictionary
// (BuildPass below): one linear pass over the expression result's rows
// and one over the attribute's base row range give the two value-ordered
// run lists that the histogram builder (BuildHistogramFromRuns) and the
// diff (ExactDiff) take. The counts are the ones sorting would produce,
// so the statistics are bit-identical to building from sorted values.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "condsel/exec/evaluator.h"
#include "condsel/histogram/builders.h"
#include "condsel/sit/sit.h"

namespace condsel {

struct SitBuildOptions {
  HistogramType histogram_type = HistogramType::kMaxDiff;
  int max_buckets = 200;  // the paper's setting
};

// One column's dictionary: its sorted distinct non-NULL values, and one
// code per table row — the index of the row's value in `values`, or
// kNullCode. 4 bytes per row plus the distinct values.
struct ColumnDictionary {
  static constexpr uint32_t kNullCode = UINT32_MAX;
  std::vector<int64_t> values;
  std::vector<uint32_t> codes;
};

// The column dictionaries of one build pass: one GenerateSitPool, one
// PartStatsMaintainer::BuildAll, or one ApplyDelta after its batch is
// applied. Each column's dictionary is built on first use and serves every
// build handed this pass. A pass lives on its caller's stack and must not
// outlive a change to the catalog's rows; it is not thread-safe.
class BuildPass {
 public:
  explicit BuildPass(const Catalog& catalog) : catalog_(&catalog) {}

  const Catalog& catalog() const { return *catalog_; }
  const ColumnDictionary& Dictionary(ColumnRef col);

 private:
  const Catalog* catalog_;
  std::map<ColumnRef, ColumnDictionary> dictionaries_;
};

// Every build takes an optional pass over the builder's catalog; without
// one, the build makes a pass of its own for that call.
class SitBuilder {
 public:
  SitBuilder(Evaluator* evaluator, SitBuildOptions options);

  // Builds SIT(attr | expression). An empty expression builds the base
  // histogram. The returned Sit has id == -1 (assigned by SitPool).
  Sit Build(ColumnRef attr, std::vector<Predicate> expression,
            BuildPass* pass = nullptr) const;

  // Builds several SITs sharing one generating expression, evaluating the
  // expression only once (pool generation creates many SITs per
  // expression). `expression` must be non-empty and connected, and every
  // attribute's table must appear in it.
  std::vector<Sit> BuildMany(const std::vector<ColumnRef>& attrs,
                             std::vector<Predicate> expression,
                             BuildPass* pass = nullptr) const;

  // Builds the multidimensional SIT(a, b | expression) over the joint
  // distribution of two attributes. With an empty expression both
  // attributes must live in the same table (a base-table 2-d histogram);
  // otherwise both tables must appear in the (connected) expression. The
  // SIT's diff records the joint-vs-product-of-marginals divergence.
  Sit Build2d(ColumnRef a, ColumnRef b,
              std::vector<Predicate> expression) const;

  // Part-scoped builds: the same statistics with the owning table —
  // attr.table (every attrs entry for BuildManyForRange) — restricted to
  // rows [row_begin, row_end), i.e. one part's slice. Other expression
  // tables contribute all rows, so the pieces over a table's parts
  // partition the expression result exactly. The diff divergence is
  // likewise computed against the part's own base distribution. A
  // full-range restriction reproduces the unrestricted build bit for bit.
  Sit BuildForRange(ColumnRef attr, std::vector<Predicate> expression,
                    size_t row_begin, size_t row_end,
                    BuildPass* pass = nullptr) const;
  std::vector<Sit> BuildManyForRange(const std::vector<ColumnRef>& attrs,
                                     std::vector<Predicate> expression,
                                     size_t row_begin, size_t row_end,
                                     BuildPass* pass = nullptr) const;

  const Catalog& catalog() const;

 private:
  // The base histogram of `attr` over rows [row_begin, row_end).
  Sit BuildBase(ColumnRef attr, size_t row_begin, size_t row_end,
                BuildPass* pass) const;
  std::vector<Sit> BuildManyImpl(const std::vector<ColumnRef>& attrs,
                                 std::vector<Predicate> expression,
                                 const RowRestriction* restriction,
                                 BuildPass* pass) const;

  Evaluator* evaluator_;
  SitBuildOptions options_;
};

}  // namespace condsel

