// Tests for the data generators: column primitives, snowflake, TPC-H-lite.

#include <gtest/gtest.h>

#include <map>

#include "condsel/datagen/column_gen.h"
#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/tpch_lite.h"
#include "condsel/exec/evaluator.h"
#include "condsel/storage/column.h"

namespace condsel {
namespace {

TEST(ColumnGenTest, UniformStaysInDomain) {
  Rng rng(1);
  const auto v = GenUniform(rng, 5000, 10, 20);
  for (int64_t x : v) {
    EXPECT_GE(x, 10);
    EXPECT_LE(x, 20);
  }
}

TEST(ColumnGenTest, ZipfSkewsLow) {
  Rng rng(2);
  const auto v = GenZipf(rng, 20000, 0, 99, 1.2);
  std::map<int64_t, int> counts;
  for (int64_t x : v) ++counts[x];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(ColumnGenTest, CorrelatedTracksDriver) {
  Rng rng(3);
  std::vector<int64_t> driver(5000);
  for (auto& d : driver) d = rng.NextInRange(0, 999);
  const auto v = GenCorrelated(rng, driver, 0, 99, 0.02);
  // Crude correlation check: driver below median -> value mostly below
  // median.
  int agree = 0;
  for (size_t i = 0; i < driver.size(); ++i) {
    agree += ((driver[i] < 500) == (v[i] < 50));
  }
  EXPECT_GT(agree, 4500);
}

TEST(ColumnGenTest, CorrelatedHandlesNullDriver) {
  Rng rng(4);
  std::vector<int64_t> driver = {kNullValue, 5, kNullValue, 9};
  const auto v = GenCorrelated(rng, driver, 0, 99, 0.0);
  for (int64_t x : v) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 99);
  }
}

TEST(ColumnGenTest, DanglingRandomFraction) {
  Rng rng(5);
  std::vector<int64_t> fk(10000, 7);
  InjectDangling(rng, fk, 0.15, nullptr);
  size_t nulls = 0;
  for (int64_t x : fk) nulls += IsNull(x);
  EXPECT_EQ(nulls, 1500u);
}

TEST(ColumnGenTest, DanglingCorrelatedTargetsLargeValues) {
  Rng rng(6);
  std::vector<int64_t> fk(1000, 1);
  std::vector<int64_t> attr(1000);
  for (size_t i = 0; i < attr.size(); ++i) {
    attr[i] = static_cast<int64_t>(i);
  }
  InjectDangling(rng, fk, 0.1, &attr);
  // Exactly the rows with the 100 largest attr values are NULLed.
  for (size_t i = 0; i < 900; ++i) EXPECT_FALSE(IsNull(fk[i]));
  for (size_t i = 900; i < 1000; ++i) EXPECT_TRUE(IsNull(fk[i]));
}

TEST(SnowflakeTest, SchemaShape) {
  SnowflakeOptions opt;
  opt.scale = 0.002;  // tiny for tests
  const Catalog c = BuildSnowflake(opt);
  EXPECT_EQ(c.num_tables(), 8);
  EXPECT_EQ(c.foreign_keys().size(), 7u);  // supports 7-way joins
  // 4..8 attributes per table, as in the paper.
  for (TableId t = 0; t < c.num_tables(); ++t) {
    EXPECT_GE(c.table(t).num_columns(), 4);
    EXPECT_LE(c.table(t).num_columns(), 8);
    EXPECT_GT(c.table(t).num_rows(), 0u);
  }
  // Fact table is the largest.
  const TableId fact = c.FindTable("fact");
  ASSERT_NE(fact, kInvalidTableId);
  for (TableId t = 0; t < c.num_tables(); ++t) {
    EXPECT_LE(c.table(t).num_rows(), c.table(fact).num_rows());
  }
}

TEST(SnowflakeTest, ForeignKeysMostlyResolve) {
  SnowflakeOptions opt;
  opt.scale = 0.002;
  opt.dangling_fraction = 0.1;
  const Catalog c = BuildSnowflake(opt);
  // fact.fk_d2 has dangling NULLs; fact.fk_d1 does not.
  const Table& fact = c.table(c.FindTable("fact"));
  EXPECT_EQ(fact.MaterializeColumn(0).CountNonNull(), fact.num_rows());
  const size_t non_null_d2 = fact.MaterializeColumn(1).CountNonNull();
  EXPECT_NEAR(static_cast<double>(non_null_d2),
              0.9 * static_cast<double>(fact.num_rows()),
              static_cast<double>(fact.num_rows()) * 0.02);
}

TEST(SnowflakeTest, FkSkewProducesJoinMultiplicitySkew) {
  SnowflakeOptions opt;
  opt.scale = 0.002;
  opt.zipf_theta = 1.0;
  const Catalog c = BuildSnowflake(opt);
  const Table& fact = c.table(c.FindTable("fact"));
  const Column fk = fact.MaterializeColumn(0);
  std::map<int64_t, int> counts;
  for (int64_t v : fk.values()) ++counts[v];
  // Dimension row 0 must be referenced far more often than the median row.
  const Table& dim1 = c.table(c.FindTable("dim1"));
  const int64_t mid = static_cast<int64_t>(dim1.num_rows() / 2);
  EXPECT_GT(counts[0], std::max(1, counts[mid]) * 5);
}

TEST(SnowflakeTest, DeterministicForSeed) {
  SnowflakeOptions opt;
  opt.scale = 0.002;
  const Catalog a = BuildSnowflake(opt);
  const Catalog b = BuildSnowflake(opt);
  const Table& ta = a.table(0);
  const Table& tb = b.table(0);
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t r = 0; r < std::min<size_t>(ta.num_rows(), 100); ++r) {
    EXPECT_EQ(ta.value(r, 0), tb.value(r, 0));
  }
}

TEST(SnowflakeTest, ScaleFromEnvOverride) {
  setenv("CONDSEL_SCALE", "0.005", 1);
  const SnowflakeOptions opt = SnowflakeOptionsFromEnv();
  EXPECT_DOUBLE_EQ(opt.scale, 0.005);
  unsetenv("CONDSEL_SCALE");
  const SnowflakeOptions def = SnowflakeOptionsFromEnv();
  EXPECT_DOUBLE_EQ(def.scale, 0.1);
}

TEST(TpchLiteTest, SchemaAndFks) {
  TpchLiteOptions opt;
  opt.scale = 0.01;
  const Catalog c = BuildTpchLite(opt);
  EXPECT_EQ(c.num_tables(), 3);
  EXPECT_EQ(c.foreign_keys().size(), 2u);
  EXPECT_NE(c.FindTable("customer"), kInvalidTableId);
  EXPECT_NE(c.FindTable("orders"), kInvalidTableId);
  EXPECT_NE(c.FindTable("lineitem"), kInvalidTableId);
  EXPECT_GT(c.table(c.FindTable("lineitem")).num_rows(),
            c.table(c.FindTable("orders")).num_rows());
}

TEST(TpchLiteTest, NationSkew) {
  TpchLiteOptions opt;
  opt.scale = 0.1;  // ~1500 customers: enough to bound sampling noise
  opt.usa_fraction = 0.7;
  const Catalog c = BuildTpchLite(opt);
  const Table& cust = c.table(c.FindTable("customer"));
  const ColumnId nation = cust.schema().FindColumn("c_nation");
  const Column nations = cust.MaterializeColumn(nation);
  size_t usa = 0;
  for (int64_t v : nations.values()) usa += (v == 0);
  EXPECT_NEAR(static_cast<double>(usa) / static_cast<double>(cust.num_rows()),
              0.7, 0.05);
}

TEST(TpchLiteTest, ExpensiveOrdersHaveManyLineItems) {
  // The paper's motivating skew: line-items per order correlates with
  // o_totalprice, so Sel(totalprice > c | lineitem join orders) is much
  // larger than Sel(totalprice > c) on the base table.
  TpchLiteOptions opt;
  opt.scale = 0.02;
  const Catalog c = BuildTpchLite(opt);
  CardinalityCache cache;
  Evaluator eval(&c, &cache);

  const ColumnRef o_price = c.ResolveColumn("orders", "o_totalprice");
  const ColumnRef o_key = c.ResolveColumn("orders", "o_orderkey");
  const ColumnRef l_key = c.ResolveColumn("lineitem", "l_orderkey");
  const Query q({Predicate::Filter(o_price, 50000, 10000000),
                 Predicate::Join(l_key, o_key)});
  const double base_sel = eval.TrueSelectivity(q, 0b01);
  const double joined_sel = eval.TrueConditionalSelectivity(q, 0b01, 0b10);
  EXPECT_GT(joined_sel, 3.0 * base_sel);
}

}  // namespace
}  // namespace condsel
