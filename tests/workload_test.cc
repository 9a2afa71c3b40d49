// Tests for the random SPJ workload generator.

#include <gtest/gtest.h>

#include "condsel/datagen/snowflake.h"
#include "condsel/datagen/workload.h"
#include "condsel/exec/evaluator.h"
#include "condsel/query/join_graph.h"

namespace condsel {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    SnowflakeOptions opt;
    opt.scale = 0.003;
    catalog_ = BuildSnowflake(opt);
    eval_ = std::make_unique<Evaluator>(&catalog_, &cache_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  std::unique_ptr<Evaluator> eval_;
};

TEST_F(WorkloadTest, ShapeMatchesOptions) {
  WorkloadOptions opt;
  opt.num_queries = 10;
  opt.num_joins = 3;
  opt.num_filters = 3;
  const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
  ASSERT_EQ(workload.size(), 10u);
  for (const Query& q : workload) {
    EXPECT_EQ(SetSize(q.join_predicates()), 3);
    EXPECT_EQ(SetSize(q.filter_predicates()), 3);
    // Join predicates form one connected expression.
    EXPECT_EQ(
        ConnectedComponents(q, q.join_predicates()).size(), 1u);
    // Filters land on joined tables only.
    const TableSet joined = q.TablesOfSubset(q.join_predicates());
    for (int i : SetElements(q.filter_predicates())) {
      EXPECT_TRUE(Contains(joined, q.predicate(i).column().table));
    }
  }
}

TEST_F(WorkloadTest, AllJoinCountsWork) {
  for (int j = 1; j <= 7; ++j) {
    WorkloadOptions opt;
    opt.num_queries = 3;
    opt.num_joins = j;
    opt.seed = 100 + static_cast<uint64_t>(j);
    const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
    for (const Query& q : workload) {
      EXPECT_EQ(SetSize(q.join_predicates()), j);
    }
  }
}

TEST_F(WorkloadTest, NonEmptyResults) {
  WorkloadOptions opt;
  opt.num_queries = 15;
  opt.num_joins = 4;
  const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
  for (const Query& q : workload) {
    EXPECT_GT(eval_->Cardinality(q, q.all_predicates()), 0.0)
        << q.ToString(catalog_);
  }
}

TEST_F(WorkloadTest, FilterSelectivityNearTarget) {
  WorkloadOptions opt;
  opt.num_queries = 20;
  opt.num_joins = 3;
  opt.filter_selectivity = 0.05;
  const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
  double total = 0.0;
  int n = 0;
  for (const Query& q : workload) {
    for (int i : SetElements(q.filter_predicates())) {
      total += eval_->TrueSelectivity(q, 1u << i);
      ++n;
    }
  }
  // Stretching can push some ranges wider, but the average should stay in
  // the neighbourhood of the target.
  EXPECT_GT(total / n, 0.02);
  EXPECT_LT(total / n, 0.25);
}

TEST_F(WorkloadTest, FiltersAvoidKeyColumns) {
  WorkloadOptions opt;
  opt.num_queries = 10;
  opt.num_joins = 5;
  const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
  for (const Query& q : workload) {
    for (int i : SetElements(q.filter_predicates())) {
      const ColumnRef col = q.predicate(i).column();
      EXPECT_FALSE(catalog_.table(col.table)
                       .schema()
                       .columns[static_cast<size_t>(col.column)]
                       .is_key);
    }
  }
}

TEST_F(WorkloadTest, DeterministicForSeed) {
  WorkloadOptions opt;
  opt.num_queries = 5;
  const auto a = GenerateWorkload(catalog_, eval_.get(), opt);
  const auto b = GenerateWorkload(catalog_, eval_.get(), opt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].predicates(), b[i].predicates());
  }
}

TEST_F(WorkloadTest, DistinctFilterColumnsWithinQuery) {
  WorkloadOptions opt;
  opt.num_queries = 10;
  opt.num_joins = 4;
  const auto workload = GenerateWorkload(catalog_, eval_.get(), opt);
  for (const Query& q : workload) {
    std::set<std::pair<TableId, ColumnId>> cols;
    for (int i : SetElements(q.filter_predicates())) {
      const ColumnRef c = q.predicate(i).column();
      EXPECT_TRUE(cols.insert({c.table, c.column}).second);
    }
  }
}

}  // namespace
}  // namespace condsel
