// Tests for single-factor approximation with SITs (Section 3.3).

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "condsel/histogram/histogram_join.h"
#include "condsel/selectivity/atomic_provider.h"
#include "condsel/sit/sit_builder.h"
#include "test_util.h"

namespace condsel {
namespace {

ColumnRef Ra() { return {0, 0}; }
ColumnRef Rx() { return {0, 1}; }
ColumnRef Sy() { return {1, 0}; }
ColumnRef Sb() { return {1, 1}; }
ColumnRef Tz() { return {2, 0}; }
ColumnRef Tc() { return {2, 1}; }

class FactorApproxTest : public ::testing::Test {
 protected:
  FactorApproxTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5),      // 0
                Predicate::Join(Rx(), Sy()),        // 1
                Predicate::Join(Sb(), Tz()),        // 2
                Predicate::Filter(Tc(), 1, 3)}),    // 3
        matcher_(&pool_) {}

  void UseJ0Pool() {
    pool_.Add(builder_.Build(Ra(), {}));
    pool_.Add(builder_.Build(Rx(), {}));
    pool_.Add(builder_.Build(Sy(), {}));
    pool_.Add(builder_.Build(Sb(), {}));
    pool_.Add(builder_.Build(Tz(), {}));
    pool_.Add(builder_.Build(Tc(), {}));
    matcher_.BindQuery(&query_);
  }

  void AddJoinSit() {
    pool_.Add(builder_.Build(Ra(), {query_.predicate(1)}));
    matcher_.BindQuery(&query_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
  SitMatcher matcher_;
  NIndError n_ind_;
};

TEST_F(FactorApproxTest, SupportedShapes) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  EXPECT_TRUE(fa.SupportedShape(query_, 0b0001));  // one filter
  EXPECT_TRUE(fa.SupportedShape(query_, 0b0010));  // one join
  EXPECT_FALSE(fa.SupportedShape(query_, 0));
  // Two filters: structurally supported (needs a multidimensional SIT to
  // actually be feasible; Score() returns infeasible without one).
  EXPECT_TRUE(fa.SupportedShape(query_, 0b1001));
  EXPECT_FALSE(fa.SupportedShape(query_, 0b0110));  // two joins
  // Join + filter on a non-join column: unsupported.
  EXPECT_FALSE(fa.SupportedShape(query_, 0b0011));
  // Two filters without a covering 2-d SIT: not feasible.
  EXPECT_FALSE(fa.Score(query_, 0b1001, 0).feasible);
}

TEST_F(FactorApproxTest, JoinPlusFilterOnJoinColumnSupported) {
  // Filter on R.x (the join column) + join R.x = S.y: Example 3's shape.
  const Query q({Predicate::Filter(Rx(), 10, 20),
                 Predicate::Join(Rx(), Sy())});
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  EXPECT_TRUE(fa.SupportedShape(q, 0b11));
}

TEST_F(FactorApproxTest, FilterFactorExactWithFineBaseHistogram) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0001, 0);
  ASSERT_TRUE(c.feasible);
  // R.a in [1,5] on 10 distinct values: 0.5 exactly.
  EXPECT_NEAR(fa.Estimate(query_, 0b0001, c), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.error, 0.0);  // nInd with empty Q
}

TEST_F(FactorApproxTest, JoinFactorUsesTwoBaseSits) {
  UseJ0Pool();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0010, 0);
  ASSERT_TRUE(c.feasible);
  ASSERT_EQ(c.sits.size(), 2u);
  // Exact join selectivity is 10 / 80 = 0.125; per-value buckets make
  // the histogram join exact.
  EXPECT_NEAR(fa.Estimate(query_, 0b0010, c), 0.125, 1e-12);
}

TEST_F(FactorApproxTest, InfeasibleWithoutAnySit) {
  // Empty pool: nothing to match.
  matcher_.BindQuery(&query_);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  const FactorChoice c = fa.Score(query_, 0b0001, 0);
  EXPECT_FALSE(c.feasible);
  EXPECT_EQ(c.error, kInfiniteError);
}

TEST_F(FactorApproxTest, PrefersSitWithLargerExpression) {
  UseJ0Pool();
  AddJoinSit();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  // Sel(p0 | p1): SIT(R.a|p1) has nInd error 0; base would give 1. The
  // matcher's maximality already removes the base here, but the choice
  // must carry the join SIT.
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  ASSERT_EQ(c.sits.size(), 1u);
  EXPECT_FALSE(c.sits[0].sit->is_base());
  EXPECT_DOUBLE_EQ(c.error, 0.0);
}

TEST_F(FactorApproxTest, ConditionalEstimateUsesSitDistribution) {
  UseJ0Pool();
  AddJoinSit();
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  // Exact Sel(R.a in [1,5] | R join S): of the 10 join tuples, those with
  // a in {1,2,3,4,5} number 2+2+1+1+1 = 7 -> 0.7. The SIT has per-value
  // buckets, so the estimate is exact.
  EXPECT_NEAR(fa.Estimate(query_, 0b0001, c), 0.7, 1e-12);
  // The base histogram would have said 0.5 — the SIT corrects the
  // dependence between the filter and the join.
  EXPECT_NEAR(eval_.TrueConditionalSelectivity(query_, 0b0001, 0b0010), 0.7,
              1e-12);
}

TEST_F(FactorApproxTest, OptErrorPicksMostAccurateCandidate) {
  UseJ0Pool();
  AddJoinSit();
  OptError opt(&eval_);
  AtomicSelectivityProvider fa(&matcher_, &opt);
  FactorChoice c = fa.Score(query_, 0b0001, 0b0010);
  ASSERT_TRUE(c.feasible);
  // The join SIT estimates Sel(p0|p1) exactly, so Opt error must be ~0.
  EXPECT_NEAR(c.error, 0.0, 1e-12);
  EXPECT_NEAR(c.estimate, 0.7, 1e-12);
}

TEST_F(FactorApproxTest, JoinPlusFilterEstimate) {
  // Example 3 end-to-end: Sel(R.x=S.y, R.x in [10,20]).
  const Query q({Predicate::Join(Rx(), Sy()),
                 Predicate::Filter(Rx(), 10, 20)});
  pool_.Add(builder_.Build(Rx(), {}));
  pool_.Add(builder_.Build(Sy(), {}));
  matcher_.BindQuery(&q);
  AtomicSelectivityProvider fa(&matcher_, &n_ind_);
  ASSERT_TRUE(fa.SupportedShape(q, 0b11));
  FactorChoice c = fa.Score(q, 0b11, 0);
  ASSERT_TRUE(c.feasible);
  const double est = fa.Estimate(q, 0b11, c);
  // Exact: matches with x in [10,20]: x=10 (2*2) + x=20 (3*1) = 7 of 80.
  const double exact = 7.0 / 80.0;
  // Histogram join result distribution is exact per-value here; accept
  // small slack from sub-bucket alignment.
  EXPECT_NEAR(est, exact, 0.02);
}

// A base statistic on `attr` split into per-part pieces (one piece: an
// unpartitioned statistic). Estimation reads only the pieces; the merged
// summary in `histogram` is left empty.
Sit BaseSitFromPieces(ColumnRef attr, std::vector<Histogram> pieces) {
  Sit sit;
  sit.attr = attr;
  if (pieces.size() == 1) {
    sit.histogram = std::move(pieces.front());
    return sit;
  }
  for (size_t k = 0; k < pieces.size(); ++k) {
    SitPart part;
    part.part = static_cast<PartId>(k);
    part.histogram = std::move(pieces[k]);
    sit.parts.push_back(std::move(part));
  }
  return sit;
}

// Σ_pq w_p·w_q·sel_pq written out, w being a piece's share of its
// statistic's rows and sel_pq the piece pair's join selectivity — times
// the pair result's RangeSelectivity when `filter` (on the join column)
// is given.
double WeightedPiecePairSum(const Sit& l, const Sit& r,
                            const Predicate* filter) {
  const auto weighted = [](const Sit& s) {
    std::vector<std::pair<const Histogram*, double>> out;
    if (!s.is_partitioned()) {
      out.emplace_back(&s.histogram, 1.0);
      return out;
    }
    double total = 0.0;
    for (const SitPart& p : s.parts) total += p.histogram.source_cardinality();
    for (const SitPart& p : s.parts) {
      out.emplace_back(&p.histogram, p.histogram.source_cardinality() / total);
    }
    return out;
  };
  double sel = 0.0;
  for (const auto& [hl, wl] : weighted(l)) {
    for (const auto& [hr, wr] : weighted(r)) {
      const JoinEstimate je = JoinHistograms(*hl, *hr);
      double pair = je.selectivity;
      if (filter != nullptr) {
        pair *= je.result.RangeSelectivity(filter->lo(), filter->hi());
      }
      sel += wl * wr * pair;
    }
  }
  return sel;
}

TEST_F(FactorApproxTest, PartitionedJoinEqualsWeightedPiecePairSum) {
  // Four R.x pieces of unequal row counts over overlapping ranges.
  const Sit left = BaseSitFromPieces(
      Rx(), {Histogram({Bucket{0, 9, 0.6, 5.0}, Bucket{10, 19, 0.4, 6.0}},
                       50.0),
             Histogram({Bucket{5, 14, 1.0, 8.0}}, 30.0),
             Histogram({Bucket{0, 4, 0.3, 5.0}, Bucket{15, 29, 0.7, 9.0}},
                       70.0),
             Histogram({Bucket{20, 39, 1.0, 12.0}}, 20.0)});
  const Sit flat_right = BaseSitFromPieces(
      Sy(), {Histogram({Bucket{0, 14, 0.5, 10.0}, Bucket{15, 29, 0.5, 10.0}},
                       100.0)});
  const Sit split_right = BaseSitFromPieces(
      Sy(), {Histogram({Bucket{0, 7, 1.0, 8.0}}, 40.0),
             Histogram({Bucket{3, 11, 0.25, 4.0}, Bucket{12, 25, 0.75, 9.0}},
                       25.0),
             Histogram({Bucket{18, 33, 1.0, 7.0}}, 60.0)});
  const Query join_only({Predicate::Join(Rx(), Sy())});
  const Query filtered(
      {Predicate::Join(Rx(), Sy()), Predicate::Filter(Rx(), 8, 22)});

  for (const Sit* right : {&flat_right, &split_right}) {
    SitPool pool;
    pool.Add(left);
    pool.Add(*right);
    SitMatcher matcher(&pool);
    AtomicSelectivityProvider fa(&matcher, &n_ind_);
    // A second matcher and provider over the same pool share its
    // join-factor memo.
    SitMatcher other_matcher(&pool);
    AtomicSelectivityProvider other(&other_matcher, &n_ind_);
    for (const Query* q : {&join_only, &filtered}) {
      matcher.BindQuery(q);
      other_matcher.BindQuery(q);
      const PredSet factor = q->all_predicates();
      const FactorChoice c = fa.Score(*q, factor, 0);
      const FactorChoice other_c = other.Score(*q, factor, 0);
      ASSERT_TRUE(c.feasible);
      ASSERT_TRUE(other_c.feasible);
      const Predicate* filter = q == &filtered ? &q->predicate(1) : nullptr;
      const double want = WeightedPiecePairSum(*c.sits[0].sit,
                                               *c.sits[1].sit, filter);
      EXPECT_GT(want, 0.0);
      // Unfiltered: a memo miss, a hit, and a hit through the other
      // provider. Filtered factors are computed every time.
      const double got[] = {fa.Estimate(*q, factor, c),
                            fa.Estimate(*q, factor, c),
                            other.Estimate(*q, factor, other_c)};
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(std::memcmp(&got[k], &want, sizeof(double)), 0)
            << (right == &flat_right ? "4 x 1" : "4 x 3") << " pieces, "
            << (filter != nullptr ? "filtered" : "unfiltered")
            << ", estimate " << k << ": got " << got[k] << ", want "
            << want;
      }
    }
  }
}

// New statistics are a new pool: one pool cannot be copied over another
// under the readers that borrow it.
static_assert(!std::is_copy_assignable_v<SitPool>);

// The join-factor memo is keyed by SitId pairs. Ids name other contents
// once a pool is move-assigned over, or once two copies of one pool Add
// different SITs, so neither may read an entry made for the old contents.
TEST_F(FactorApproxTest, JoinFactorMemoFollowsPoolContents) {
  const Sit rx_a = BaseSitFromPieces(
      Rx(), {Histogram({Bucket{0, 9, 1.0, 5.0}}, 40.0),
             Histogram({Bucket{5, 19, 1.0, 10.0}}, 60.0)});
  const Sit rx_b = BaseSitFromPieces(
      Rx(), {Histogram({Bucket{0, 4, 1.0, 5.0}}, 10.0),
             Histogram({Bucket{10, 29, 1.0, 8.0}}, 90.0)});
  const Sit sy_a = BaseSitFromPieces(
      Sy(), {Histogram({Bucket{0, 14, 0.5, 10.0}, Bucket{15, 29, 0.5, 10.0}},
                       100.0)});
  const Sit sy_b = BaseSitFromPieces(
      Sy(), {Histogram({Bucket{0, 7, 1.0, 8.0}}, 40.0),
             Histogram({Bucket{3, 25, 1.0, 9.0}}, 25.0)});
  const Query q({Predicate::Join(Rx(), Sy())});
  // Estimates the join through a fresh matcher and provider, and checks
  // it against the piece-pair sum of the pool's current SITs 0 and 1.
  const auto expect_current = [&](const SitPool& pool, const char* what) {
    SitMatcher matcher(&pool);
    matcher.BindQuery(&q);
    AtomicSelectivityProvider fa(&matcher, &n_ind_);
    const FactorChoice c = fa.Score(q, 0b1, 0);
    EXPECT_TRUE(c.feasible) << what;
    if (!c.feasible) return;
    const double got = fa.Estimate(q, 0b1, c);
    const double want =
        WeightedPiecePairSum(pool.sit(0), pool.sit(1), nullptr);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << what << ": got " << got << ", want " << want;
  };
  ASSERT_NE(WeightedPiecePairSum(rx_a, sy_a, nullptr),
            WeightedPiecePairSum(rx_b, sy_b, nullptr));
  ASSERT_NE(WeightedPiecePairSum(rx_a, sy_a, nullptr),
            WeightedPiecePairSum(rx_a, sy_b, nullptr));

  // Same ids, different pieces, move-assigned into the same object.
  SitPool pool;
  pool.Add(rx_a);
  pool.Add(sy_a);
  expect_current(pool, "before assignment");
  SitPool replacement;
  replacement.Add(rx_b);
  replacement.Add(sy_b);
  pool = std::move(replacement);
  expect_current(pool, "after assignment");

  // Two copies of one pool, each given a different SIT under id 1.
  SitPool base;
  base.Add(rx_a);
  SitPool copy_a = base;
  SitPool copy_b = base;
  ASSERT_EQ(copy_a.Add(sy_a), 1);
  ASSERT_EQ(copy_b.Add(sy_b), 1);
  expect_current(copy_a, "first copy");
  expect_current(copy_b, "second copy");
  expect_current(copy_a, "first copy again");
}

}  // namespace
}  // namespace condsel
