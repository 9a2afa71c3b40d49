#include "condsel/sit/sit_builder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "condsel/common/macros.h"
#include "condsel/histogram/diff_metric.h"
#include "condsel/query/join_graph.h"
#include "condsel/query/query.h"

namespace condsel {

namespace {

ColumnDictionary BuildDictionary(const Table& t, ColumnId column) {
  // invariant: row ids are uint32_t throughout the executor (JoinResult),
  // so a code per row always fits beside kNullCode.
  CONDSEL_CHECK(t.num_rows() < ColumnDictionary::kNullCode);
  // Number the distinct values in order of first appearance, then
  // renumber them in value order: a hash pass plus a sort of the distinct
  // values only.
  ColumnDictionary dict;
  dict.codes.reserve(t.num_rows());
  std::unordered_map<int64_t, uint32_t> first_seen;
  std::vector<int64_t> seen;
  const Column col = t.MaterializeColumn(column);
  for (const int64_t v : col.values()) {
    if (IsNull(v)) {
      dict.codes.push_back(ColumnDictionary::kNullCode);
      continue;
    }
    const auto [it, inserted] =
        first_seen.emplace(v, static_cast<uint32_t>(seen.size()));
    if (inserted) seen.push_back(v);
    dict.codes.push_back(it->second);
  }
  dict.values = seen;
  std::sort(dict.values.begin(), dict.values.end());
  std::vector<uint32_t> rank(seen.size());
  for (size_t id = 0; id < seen.size(); ++id) {
    rank[id] = static_cast<uint32_t>(
        std::lower_bound(dict.values.begin(), dict.values.end(), seen[id]) -
        dict.values.begin());
  }
  for (uint32_t& code : dict.codes) {
    if (code != ColumnDictionary::kNullCode) code = rank[code];
  }
  return dict;
}

// Counts the codes of rows row_at(0..n-1) and returns the value-ordered
// runs of the non-NULL ones: what sorting those rows' values would give.
template <typename RowAt>
ValueRuns CountRuns(const ColumnDictionary& dict, size_t n, RowAt row_at) {
  std::vector<uint64_t> counts(dict.values.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t code = dict.codes[row_at(i)];
    if (code != ColumnDictionary::kNullCode) ++counts[code];
  }
  ValueRuns runs;
  for (size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] != 0) runs.emplace_back(dict.values[v], counts[v]);
  }
  return runs;
}

ValueRuns CountRange(const ColumnDictionary& dict, size_t row_begin,
                     size_t row_end) {
  // invariant: callers pass a row range of the dictionary's table.
  CONDSEL_CHECK(row_begin <= row_end && row_end <= dict.codes.size());
  return CountRuns(dict, row_end - row_begin,
                   [&](size_t i) { return row_begin + i; });
}

}  // namespace

const ColumnDictionary& BuildPass::Dictionary(ColumnRef col) {
  const Table& t = catalog_->table(col.table);
  auto it = dictionaries_.find(col);
  if (it == dictionaries_.end()) {
    it = dictionaries_.emplace(col, BuildDictionary(t, col.column)).first;
  }
  // invariant: a pass does not outlive a change to the catalog's rows.
  CONDSEL_CHECK(it->second.codes.size() == t.num_rows());
  return it->second;
}

SitBuilder::SitBuilder(Evaluator* evaluator, SitBuildOptions options)
    : evaluator_(evaluator), options_(options) {
  CONDSEL_CHECK(evaluator != nullptr);
  // User-supplied configuration: clamp rather than abort, so the histogram
  // builders' max_buckets >= 1 precondition stays an internal invariant.
  options_.max_buckets = std::max(1, options_.max_buckets);
}

const Catalog& SitBuilder::catalog() const { return evaluator_->catalog(); }

Sit SitBuilder::Build(ColumnRef attr, std::vector<Predicate> expression,
                      BuildPass* pass) const {
  if (expression.empty()) {
    return BuildBase(attr, 0, catalog().table(attr.table).num_rows(), pass);
  }
  std::vector<Sit> sits = BuildMany({attr}, std::move(expression), pass);
  return std::move(sits[0]);
}

std::vector<Sit> SitBuilder::BuildMany(const std::vector<ColumnRef>& attrs,
                                       std::vector<Predicate> expression,
                                       BuildPass* pass) const {
  return BuildManyImpl(attrs, std::move(expression), /*restriction=*/nullptr,
                       pass);
}

Sit SitBuilder::BuildBase(ColumnRef attr, size_t row_begin, size_t row_end,
                          BuildPass* pass) const {
  BuildPass own(catalog());
  if (pass == nullptr) pass = &own;
  // invariant: a pass serves the builder's own catalog.
  CONDSEL_CHECK(&pass->catalog() == &catalog());
  Sit sit;
  sit.attr = attr;
  sit.histogram = BuildHistogramFromRuns(
      options_.histogram_type,
      CountRange(pass->Dictionary(attr), row_begin, row_end),
      static_cast<double>(row_end - row_begin), options_.max_buckets);
  sit.diff = 0.0;
  return sit;
}

std::vector<Sit> SitBuilder::BuildManyImpl(
    const std::vector<ColumnRef>& attrs, std::vector<Predicate> expression,
    const RowRestriction* restriction, BuildPass* pass) const {
  CONDSEL_CHECK(!expression.empty());
  BuildPass own(catalog());
  if (pass == nullptr) pass = &own;
  // invariant: a pass serves the builder's own catalog.
  CONDSEL_CHECK(&pass->catalog() == &catalog());
  std::sort(expression.begin(), expression.end());

  const Query expr_query(expression);
  const PredSet all = expr_query.all_predicates();
  CONDSEL_CHECK_MSG(
      ConnectedComponents(expr_query, all).size() == 1,
      "SIT expression must be connected");

  // Evaluate the expression once; count each attribute over the
  // materialized result.
  const JoinResult jr =
      evaluator_->EvaluateComponent(expr_query, all, restriction);
  const size_t width = jr.tables.size();

  std::vector<Sit> out;
  out.reserve(attrs.size());
  for (const ColumnRef& attr : attrs) {
    // Under a restriction the attribute must live in the restricted
    // table: that is what makes the pieces over a table's parts a
    // partition of the expression result.
    CONDSEL_CHECK(restriction == nullptr ||
                  attr.table == restriction->table);
    const int slot = jr.TableSlot(attr.table);
    CONDSEL_CHECK_MSG(slot >= 0,
                      "SIT attribute's table must appear in its expression");
    const ColumnDictionary& dict = pass->Dictionary(attr);
    const ValueRuns runs = CountRuns(dict, jr.num_tuples, [&](size_t i) {
      return jr.tuple_rows[i * width + static_cast<size_t>(slot)];
    });
    const ValueRuns base =
        restriction == nullptr
            ? CountRange(dict, 0, dict.codes.size())
            : CountRange(dict, restriction->begin, restriction->end);

    Sit sit;
    sit.attr = attr;
    sit.expression = expression;
    sit.histogram = BuildHistogramFromRuns(options_.histogram_type, runs,
                                           static_cast<double>(jr.num_tuples),
                                           options_.max_buckets);
    sit.diff = ExactDiff(base, runs);
    out.push_back(std::move(sit));
  }
  return out;
}

Sit SitBuilder::BuildForRange(ColumnRef attr,
                              std::vector<Predicate> expression,
                              size_t row_begin, size_t row_end,
                              BuildPass* pass) const {
  if (expression.empty()) return BuildBase(attr, row_begin, row_end, pass);
  const RowRestriction restriction{attr.table, row_begin, row_end};
  std::vector<Sit> sits =
      BuildManyImpl({attr}, std::move(expression), &restriction, pass);
  return std::move(sits[0]);
}

std::vector<Sit> SitBuilder::BuildManyForRange(
    const std::vector<ColumnRef>& attrs, std::vector<Predicate> expression,
    size_t row_begin, size_t row_end, BuildPass* pass) const {
  CONDSEL_CHECK(!attrs.empty());
  const RowRestriction restriction{attrs[0].table, row_begin, row_end};
  return BuildManyImpl(attrs, std::move(expression), &restriction, pass);
}


namespace {

// 0.5 * L1 distance between the joint distribution of the pairs and the
// product of its marginals: the correlation mass a 2-d SIT captures that
// two unidimensional histograms structurally cannot. Computed on a
// coarse quantile grid (16 x 16) so sparse-sample noise does not read as
// correlation.
double JointVsMarginalsDiff(std::vector<int64_t> xs,
                            std::vector<int64_t> ys) {
  if (xs.empty()) return 0.0;
  constexpr int kBins = 16;
  const size_t n = xs.size();

  // Quantile bin index of v within the sorted copy of `values`.
  auto bin_edges = [&](std::vector<int64_t> values) {
    std::sort(values.begin(), values.end());
    std::vector<int64_t> edges;  // upper inclusive bound per bin
    for (int b = 1; b <= kBins; ++b) {
      const size_t idx =
          std::min(n - 1, n * static_cast<size_t>(b) / kBins);
      edges.push_back(values[idx == 0 ? 0 : idx - 1]);
    }
    return edges;
  };
  const std::vector<int64_t> ex = bin_edges(xs);
  const std::vector<int64_t> ey = bin_edges(ys);
  auto bin_of = [&](const std::vector<int64_t>& edges, int64_t v) {
    for (int b = 0; b < kBins; ++b) {
      if (v <= edges[static_cast<size_t>(b)]) return b;
    }
    return kBins - 1;
  };

  std::vector<double> joint(kBins * kBins, 0.0);
  std::vector<double> mx(kBins, 0.0), my(kBins, 0.0);
  const double w = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const int bx = bin_of(ex, xs[i]);
    const int by = bin_of(ey, ys[i]);
    joint[static_cast<size_t>(bx * kBins + by)] += w;
    mx[static_cast<size_t>(bx)] += w;
    my[static_cast<size_t>(by)] += w;
  }
  double l1 = 0.0;
  for (int bx = 0; bx < kBins; ++bx) {
    for (int by = 0; by < kBins; ++by) {
      l1 += std::abs(joint[static_cast<size_t>(bx * kBins + by)] -
                     mx[static_cast<size_t>(bx)] *
                         my[static_cast<size_t>(by)]);
    }
  }
  return std::min(1.0, 0.5 * l1);
}

}  // namespace

Sit SitBuilder::Build2d(ColumnRef a, ColumnRef b,
                        std::vector<Predicate> expression) const {
  if (b < a) std::swap(a, b);
  std::sort(expression.begin(), expression.end());

  Sit sit;
  sit.attr = a;
  sit.attr2 = b;
  sit.expression = expression;

  std::vector<int64_t> xs, ys;
  double total = 0.0;
  const Catalog& catalog = evaluator_->catalog();
  if (expression.empty()) {
    CONDSEL_CHECK_MSG(a.table == b.table,
                      "base 2-d histogram needs same-table attributes");
    const Table& t = catalog.table(a.table);
    total = static_cast<double>(t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const int64_t x = t.value(r, a.column);
      const int64_t y = t.value(r, b.column);
      if (IsNull(x) || IsNull(y)) continue;
      xs.push_back(x);
      ys.push_back(y);
    }
  } else {
    const Query expr_query(expression);
    const PredSet all = expr_query.all_predicates();
    CONDSEL_CHECK_MSG(
        ConnectedComponents(expr_query, all).size() == 1,
        "SIT expression must be connected");
    const JoinResult jr = evaluator_->EvaluateComponent(expr_query, all);
    const int slot_a = jr.TableSlot(a.table);
    const int slot_b = jr.TableSlot(b.table);
    CONDSEL_CHECK_MSG(slot_a >= 0 && slot_b >= 0,
                      "both attributes' tables must appear in the expression");
    total = static_cast<double>(jr.num_tuples);
    const Table& ta = catalog.table(a.table);
    const Table& tb = catalog.table(b.table);
    const size_t width = jr.tables.size();
    for (size_t i = 0; i < jr.num_tuples; ++i) {
      const int64_t x = ta.value(
          jr.tuple_rows[i * width + static_cast<size_t>(slot_a)], a.column);
      const int64_t y = tb.value(
          jr.tuple_rows[i * width + static_cast<size_t>(slot_b)], b.column);
      if (IsNull(x) || IsNull(y)) continue;
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  sit.histogram2d =
      BuildHistogram2d(xs, ys, total, options_.max_buckets);
  sit.diff = JointVsMarginalsDiff(std::move(xs), std::move(ys));
  return sit;
}

}  // namespace condsel
