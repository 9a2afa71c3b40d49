// Differential test of the SIT build: pools and part-statistics pieces
// built from per-value counts over column dictionaries (sit_builder.h)
// must equal, bit for bit, the build that projects each attribute's
// values, sorts them into the histogram builder and sort-merges the diff
// against a projection of the base column. That older build is written
// out here as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "condsel/catalog/part_stats.h"
#include "condsel/common/rng.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/cardinality_cache.h"
#include "condsel/exec/evaluator.h"
#include "condsel/histogram/builders.h"
#include "condsel/sit/sit_builder.h"
#include "condsel/sit/sit_pool.h"

namespace condsel {
namespace {

// diff by sorting both value vectors and merging them run by run.
double SortMergeDiff(std::vector<int64_t> a, std::vector<int64_t> b) {
  if (a.empty() || b.empty()) return 0.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  double l1 = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    int64_t v;
    if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
      v = a[i];
    } else if (i >= a.size() || b[j] < a[i]) {
      v = b[j];
    } else {
      v = a[i];
    }
    size_t ca = 0, cb = 0;
    while (i < a.size() && a[i] == v) {
      ++ca;
      ++i;
    }
    while (j < b.size() && b[j] == v) {
      ++cb;
      ++j;
    }
    l1 += std::abs(static_cast<double>(ca) / na -
                   static_cast<double>(cb) / nb);
  }
  return 0.5 * l1;
}

struct Statistic {
  Histogram histogram;
  double diff = 0.0;
};

// The sorting build: one statistic per spec, over rows [begin, end) of
// the spec's owning table. Join results are evaluated once per
// (expression, row range) and shared across specs and histogram types.
class SortingBuild {
 public:
  explicit SortingBuild(const Catalog* catalog)
      : catalog_(catalog), evaluator_(catalog, /*cache=*/nullptr) {}

  Statistic Build(const SitSpec& spec, size_t begin, size_t end,
                  const SitBuildOptions& options) {
    const Table& t = catalog_->table(spec.attr.table);
    std::vector<int64_t> base;
    for (size_t r = begin; r < end; ++r) {
      const int64_t v = t.value(r, spec.attr.column);
      if (!IsNull(v)) base.push_back(v);
    }
    Statistic out;
    if (spec.expression.empty()) {
      out.histogram =
          BuildHistogram(options.histogram_type, base,
                         static_cast<double>(end - begin),
                         options.max_buckets);
      return out;
    }
    const JoinResult& jr = Evaluate(spec, begin, end);
    const int slot = jr.TableSlot(spec.attr.table);
    const size_t width = jr.tables.size();
    std::vector<int64_t> values;
    for (size_t i = 0; i < jr.num_tuples; ++i) {
      const int64_t v = t.value(
          jr.tuple_rows[i * width + static_cast<size_t>(slot)],
          spec.attr.column);
      if (!IsNull(v)) values.push_back(v);
    }
    out.histogram = BuildHistogram(options.histogram_type, values,
                                   static_cast<double>(jr.num_tuples),
                                   options.max_buckets);
    out.diff = SortMergeDiff(std::move(base), std::move(values));
    return out;
  }

 private:
  const JoinResult& Evaluate(const SitSpec& spec, size_t begin, size_t end) {
    const auto key = std::make_tuple(spec.expression, spec.owner(), begin, end);
    auto it = results_.find(key);
    if (it == results_.end()) {
      const Query q(spec.expression);
      const RowRestriction restriction{spec.owner(), begin, end};
      it = results_
               .emplace(key, evaluator_.EvaluateComponent(
                                 q, q.all_predicates(), &restriction))
               .first;
    }
    return it->second;
  }

  const Catalog* catalog_;
  Evaluator evaluator_;
  std::map<std::tuple<std::vector<Predicate>, TableId, size_t, size_t>,
           JoinResult>
      results_;
};

void ExpectSameBits(double got, double want, const std::string& where) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << where << ": " << got << " vs " << want;
}

void ExpectSameStatistic(const Histogram& histogram, double diff,
                         const Statistic& want, const std::string& where) {
  ExpectSameBits(diff, want.diff, where + " diff");
  ExpectSameBits(histogram.source_cardinality(),
                 want.histogram.source_cardinality(),
                 where + " source_cardinality");
  ASSERT_EQ(histogram.num_buckets(), want.histogram.num_buckets()) << where;
  for (size_t b = 0; b < histogram.num_buckets(); ++b) {
    const Bucket& g = histogram.buckets()[b];
    const Bucket& w = want.histogram.buckets()[b];
    EXPECT_EQ(g.lo, w.lo) << where << " bucket " << b;
    EXPECT_EQ(g.hi, w.hi) << where << " bucket " << b;
    ExpectSameBits(g.frequency, w.frequency, where + " frequency");
    ExpectSameBits(g.distinct, w.distinct, where + " distinct");
  }
}

// Every piece of every part entry against the sorting build over that
// part's rows. Returns the number of pieces compared.
int ExpectSameEntries(const PartStatsMaintainer& maintainer,
                      const SitBuildOptions& options,
                      const std::string& where) {
  const Catalog& catalog = maintainer.catalog();
  const PartStatsSet& stats = maintainer.stats();
  SortingBuild reference(&catalog);
  int compared = 0;
  for (const auto& [key, entry] : stats.entries()) {
    const Table& t = catalog.table(key.first);
    const int pi = t.part_index(key.second);
    EXPECT_GE(pi, 0) << where;
    if (pi < 0) continue;
    const size_t begin = t.part_row_offset(static_cast<size_t>(pi));
    const size_t end = begin + t.part(static_cast<size_t>(pi)).num_rows();
    const std::vector<int32_t> owned = stats.SpecsOwnedBy(key.first);
    EXPECT_EQ(entry.pieces.size(), owned.size()) << where;
    for (size_t k = 0; k < owned.size() && k < entry.pieces.size(); ++k) {
      const SitSpec& spec = stats.specs()[static_cast<size_t>(owned[k])];
      ExpectSameStatistic(entry.pieces[k], entry.diffs[k],
                          reference.Build(spec, begin, end, options),
                          where + " T" + std::to_string(key.first) +
                              " part " + std::to_string(key.second) +
                              " spec " + std::to_string(owned[k]));
      ++compared;
    }
  }
  return compared;
}

// Re-seals `table` into `parts` sealed parts of (nearly) equal size.
void Reseal(Catalog* catalog, TableId table, int parts) {
  const Table& old = catalog->table(table);
  Table resealed(old.schema());
  const size_t rows = old.num_rows();
  const size_t per_part = (rows + static_cast<size_t>(parts) - 1) /
                          static_cast<size_t>(parts);
  std::vector<int64_t> row(static_cast<size_t>(old.num_columns()));
  for (size_t r = 0; r < rows; ++r) {
    for (ColumnId c = 0; c < old.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = old.value(r, c);
    }
    resealed.AppendRow(row);
    if ((r + 1) % per_part == 0) resealed.SealTail();
  }
  resealed.SealTail();
  catalog->mutable_table(table) = std::move(resealed);
}

// Deletes the oldest part's rows and inserts as many seeded copies of
// live rows, as a churning writer does.
DeltaBatch ChurnBatch(const Catalog& catalog, TableId table, uint64_t seed) {
  const Table& t = catalog.table(table);
  DeltaBatch batch;
  batch.table = table;
  const size_t oldest = t.part(0).num_rows();
  for (size_t r = 0; r < oldest; ++r) batch.delete_rows.push_back(r);
  Rng rng(seed);
  for (size_t i = 0; i < oldest; ++i) {
    const size_t src = static_cast<size_t>(rng.NextInRange(
        static_cast<int64_t>(oldest), static_cast<int64_t>(t.num_rows()) - 1));
    std::vector<int64_t> row;
    for (ColumnId c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.value(src, c));
    }
    batch.insert_rows.push_back(std::move(row));
  }
  return batch;
}

struct Shape {
  int joins;
  int filters;
  int pool_joins;
};

TEST(SitBuildDifferentialTest, CountedBuildsEqualSortedBuildsBitForBit) {
  SnowflakeOptions snowflake;
  snowflake.scale = 0.01;
  snowflake.zipf_theta = 1.0;
  const Catalog catalog = BuildSnowflake(snowflake);
  const HistogramType kTypes[] = {
      HistogramType::kMaxDiff, HistogramType::kEquiDepth,
      HistogramType::kEquiWidth, HistogramType::kEndBiased};
  // The benchmark suite's statement shapes: 5 joins/3 filters with SITs
  // over up to 3 joins, 7/5 up to 4, 3/3 up to 2.
  const Shape kShapes[] = {{5, 3, 3}, {7, 5, 4}, {3, 3, 2}};

  std::vector<Query> churn_statements;
  int pool_sits = 0;
  for (const Shape& shape : kShapes) {
    CardinalityCache cache;
    Evaluator evaluator(&catalog, &cache);
    WorkloadOptions workload;
    workload.num_queries = 12;
    workload.num_joins = shape.joins;
    workload.num_filters = shape.filters;
    workload.seed = static_cast<uint64_t>(100 + shape.joins);
    const std::vector<Query> statements =
        GenerateWorkload(catalog, &evaluator, workload);
    const std::vector<SitSpec> specs =
        EnumerateSitSpecs(statements, shape.pool_joins);
    SortingBuild reference(&catalog);
    for (const HistogramType type : kTypes) {
      const SitBuildOptions options{type, 40};
      const SitBuilder builder(&evaluator, options);
      const SitPool pool =
          GenerateSitPool(statements, shape.pool_joins, builder);
      ASSERT_EQ(static_cast<size_t>(pool.size()), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        const SitSpec& spec = specs[i];
        const Sit& sit = pool.sit(static_cast<SitId>(i));
        const size_t rows = catalog.table(spec.owner()).num_rows();
        ExpectSameStatistic(sit.histogram, sit.diff,
                            reference.Build(spec, 0, rows, options),
                            std::string(HistogramTypeName(type)) + " " +
                                std::to_string(shape.joins) + "-join SIT " +
                                std::to_string(i));
        ++pool_sits;
      }
    }
    if (shape.joins == 3) churn_statements = statements;
  }
  EXPECT_GT(pool_sits, 1000);

  // Part statistics: a fact table in 8 parts, then one churn delta.
  for (const HistogramType type : kTypes) {
    const SitBuildOptions options{type, 40};
    Catalog parted = catalog;
    const TableId fact = parted.FindTable("fact");
    Reseal(&parted, fact, 8);
    PartStatsMaintainer maintainer(&parted, churn_statements,
                                   /*max_join_preds=*/2, options);
    ASSERT_TRUE(maintainer.BuildAll().ok());
    const std::string name = HistogramTypeName(type);
    EXPECT_GT(ExpectSameEntries(maintainer, options, name + " BuildAll"), 0);

    StatusOr<DeltaReport> report =
        maintainer.ApplyDelta(ChurnBatch(parted, fact, 7));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().rebuilt_parts.size(), 1u);
    EXPECT_GT(report.value().cross_table_pieces_rebuilt, 0);
    EXPECT_GT(ExpectSameEntries(maintainer, options, name + " ApplyDelta"),
              0);
  }
}

}  // namespace
}  // namespace condsel
