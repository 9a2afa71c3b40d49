// Robustness tests: recoverable errors (Status/StatusOr), budgeted
// estimation with graceful degradation, fault injection, and numeric
// sanitization. The invariant under test throughout: no user-reachable
// input — malformed queries, mismatched pools, empty tables, exhausted
// budgets, corrupted statistics — may abort the process or produce a
// non-finite selectivity through the Try* entry points.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "condsel/api.h"
#include "condsel/common/fault_injector.h"
#include "condsel/common/numeric.h"
#include "condsel/common/status.h"
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

// ---------------------------------------------------------------------------
// Status / StatusOr.

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status::Ok());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::NotFound("no base histogram for R.a");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no base histogram for R.a");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no base histogram for R.a");
  EXPECT_NE(s, Status::NotFound("something else"));
  EXPECT_NE(s, Status::InvalidArgument("no base histogram for R.a"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kDeadlineExceeded, StatusCode::kDataLoss,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "");
    EXPECT_STRNE(StatusCodeName(c), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<double> v = 0.25;
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.value(), 0.25);
  EXPECT_DOUBLE_EQ(*v, 0.25);
  EXPECT_DOUBLE_EQ(v.value_or(1.0), 0.25);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<double> v = Status::ResourceExhausted("budget spent");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kResourceExhausted);
  // value_or is the graceful-degradation one-liner.
  EXPECT_DOUBLE_EQ(v.value_or(1.0), 1.0);
}

// ---------------------------------------------------------------------------
// Numeric sanitization.

TEST(NumericTest, SanitizeSelectivity) {
  EXPECT_DOUBLE_EQ(SanitizeSelectivity(0.5), 0.5);
  EXPECT_DOUBLE_EQ(SanitizeSelectivity(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(SanitizeSelectivity(1.5), 1.0);
  EXPECT_DOUBLE_EQ(SanitizeSelectivity(std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(
      SanitizeSelectivity(std::numeric_limits<double>::infinity()), 1.0);
}

TEST(NumericTest, SaturatingMultiplyNeverOverflows) {
  const double huge = std::numeric_limits<double>::max();
  EXPECT_TRUE(std::isfinite(SaturatingMultiply(huge, huge)));
  EXPECT_TRUE(std::isfinite(SaturatingMultiply(huge, 2.0)));
  EXPECT_DOUBLE_EQ(SaturatingMultiply(1e10, 1e10), 1e20);
  EXPECT_DOUBLE_EQ(SaturatingMultiply(std::nan(""), 3.0), 0.0);
}

// ---------------------------------------------------------------------------
// FaultInjector plumbing.

TEST(FaultInjectorTest, ScopedFaultArmsAndRestores) {
  FaultInjector& fi = FaultInjector::Instance();
  ASSERT_FALSE(fi.armed());
  {
    ScopedFault drop(Fault::kDropSits);
    EXPECT_TRUE(fi.armed());
    EXPECT_TRUE(fi.enabled(Fault::kDropSits));
    EXPECT_FALSE(fi.enabled(Fault::kCorruptHistograms));
    {
      ScopedFault corrupt(Fault::kCorruptHistograms);
      EXPECT_TRUE(fi.enabled(Fault::kCorruptHistograms));
    }
    EXPECT_FALSE(fi.enabled(Fault::kCorruptHistograms));
    EXPECT_TRUE(fi.enabled(Fault::kDropSits));
  }
  EXPECT_FALSE(fi.armed());
}

// ---------------------------------------------------------------------------
// Recoverable-error layer of the Estimator facade.

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        query_({Predicate::Filter(Ra(), 1, 5), Predicate::Join(Rx(), Sy())}) {
    pool_ = GenerateSitPool({query_}, 1, builder_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
};

TEST_F(RobustnessTest, TryEstimateMatchesAbortingWrapperOnHappyPath) {
  Estimator est(&catalog_, &pool_);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  const StatusOr<double> card = est.TryEstimateCardinality(query_);
  ASSERT_TRUE(card.ok());
  const StatusOr<std::string> why = est.TryExplain(query_);
  ASSERT_TRUE(why.ok());
  EXPECT_NE(why.value().find("Sel("), std::string::npos);
}

TEST_F(RobustnessTest, MissingBaseHistogramIsFailedPrecondition) {
  // A pool holding only R.a's base histogram cannot serve the join.
  SitPool sparse;
  sparse.Add(builder_.Build(Ra(), {}));
  Estimator est(&catalog_, &sparse);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(sel.status().message().find("base histogram"),
            std::string::npos);
  // The filter alone is servable: errors are per-request, not sticky.
  const StatusOr<double> filter_only =
      est.TryEstimateSelectivity(query_, 0b01);
  EXPECT_TRUE(filter_only.ok()) << filter_only.status().ToString();
}

TEST_F(RobustnessTest, UnknownColumnIsInvalidArgument) {
  const Query bad({Predicate::Filter({0, 7}, 1, 5)});
  Estimator est(&catalog_, &pool_);
  const StatusOr<double> sel = est.TryEstimateSelectivity(bad);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, UnknownTableIsInvalidArgument) {
  const Query bad({Predicate::Filter({9, 0}, 1, 5)});
  Estimator est(&catalog_, &pool_);
  const StatusOr<double> sel = est.TryEstimateSelectivity(bad);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sel.status().message().find("outside the catalog"),
            std::string::npos);
}

TEST_F(RobustnessTest, ForeignSubsetMaskIsInvalidArgument) {
  Estimator est(&catalog_, &pool_);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_, 0b100);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sel.status().message().find("subset"), std::string::npos);
}

TEST_F(RobustnessTest, PoolAgainstWrongCatalogIsFailedPrecondition) {
  // The three-table pool deserialized against a one-table database: every
  // request must fail cleanly instead of dereferencing table id 1 or 2.
  Catalog one_table;
  one_table.AddTable(test::MakeTable("only", {"c"}, {{1}, {2}}));
  Estimator est(&one_table, &pool_);
  const Query q({Predicate::Filter({0, 0}, 1, 2)});
  const StatusOr<double> sel = est.TryEstimateSelectivity(q);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(sel.status().message().find("different database"),
            std::string::npos);
}

TEST_F(RobustnessTest, PoolExpressionOutsideCatalogIsFailedPrecondition) {
  // The SIT's attribute is in the catalog, but its join expression names
  // table 9, which the three-table catalog lacks.
  Sit bad;
  bad.attr = Ra();
  bad.expression = {Predicate::Join(Rx(), ColumnRef{9, 0})};
  pool_.Add(std::move(bad));
  Estimator est(&catalog_, &pool_);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sel.status().message(),
            "SIT pool expression references a column outside the catalog");
}

TEST_F(RobustnessTest, AbortingWrapperStillAbortsOnBadInput) {
  const Query bad({Predicate::Filter({9, 0}, 1, 5)});
  Estimator est(&catalog_, &pool_);
  EXPECT_DEATH(est.TryEstimateSelectivity(bad).value(), "outside the catalog");
}

TEST_F(RobustnessTest, EmptyTableYieldsFiniteClampedEstimate) {
  // An empty table produces an empty base histogram; estimates over it
  // must come back finite and in range, not NaN from 0/0.
  Catalog catalog = test::MakeTinyCatalog();
  catalog.AddTable(test::MakeTable("E", {"v"}, {}));
  CardinalityCache cache;
  Evaluator eval(&catalog, &cache);
  SitBuilder builder(&eval, {HistogramType::kMaxDiff, 64});
  const ColumnRef ev{3, 0};
  SitPool pool;
  pool.Add(builder.Build(ev, {}));
  const Query q({Predicate::Filter(ev, 0, 10)});
  Estimator est(&catalog, &pool);
  const StatusOr<double> sel = est.TryEstimateSelectivity(q);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(std::isfinite(*sel));
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  const StatusOr<double> card = est.TryEstimateCardinality(q);
  ASSERT_TRUE(card.ok());
  EXPECT_TRUE(std::isfinite(*card));
  EXPECT_GE(*card, 0.0);
}

// ---------------------------------------------------------------------------
// Budgeted estimation with graceful degradation.

class BudgetTest : public ::testing::Test {
 protected:
  BudgetTest()
      : catalog_(test::MakeTinyCatalog()),
        eval_(&catalog_, &cache_),
        builder_(&eval_, {HistogramType::kMaxDiff, 64}),
        // Ten predicates: two joins plus eight filters, so the DP faces
        // hundreds of reachable subsets and a tiny budget must bite.
        query_({Predicate::Join(Rx(), Sy()), Predicate::Join(Sb(), Tz()),
                Predicate::Filter(Ra(), 1, 9), Predicate::Filter(Ra(), 2, 8),
                Predicate::Filter(Rx(), 10, 50),
                Predicate::Filter(Sy(), 10, 60),
                Predicate::Filter(Sb(), 100, 300),
                Predicate::Filter(Sb(), 200, 400),
                Predicate::Filter(Tz(), 100, 500),
                Predicate::Filter(Tc(), 1, 5)}) {
    pool_ = GenerateSitPool({query_}, 2, builder_);
  }

  Catalog catalog_;
  CardinalityCache cache_;
  Evaluator eval_;
  SitBuilder builder_;
  Query query_;
  SitPool pool_;
};

TEST_F(BudgetTest, UnlimitedByDefault) {
  EXPECT_TRUE(EstimationBudget{}.unlimited());
  Estimator est(&catalog_, &pool_);
  ASSERT_TRUE(est.TryEstimateSelectivity(query_).ok());
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_FALSE(stats->budget_exhausted);
  EXPECT_EQ(stats->degraded_subproblems, 0u);
}

TEST_F(BudgetTest, TinySubproblemBudgetDegradesGracefully) {
  EstimationBudget budget;
  budget.max_subproblems = 4;
  EXPECT_FALSE(budget.unlimited());
  Estimator est(&catalog_, &pool_, Ranking::kDiff, budget);

  const auto start = std::chrono::steady_clock::now();
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Budget exhaustion is degradation, not an error.
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(std::isfinite(*sel));
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->budget_exhausted);
  EXPECT_GT(stats->degraded_subproblems, 0u);
  EXPECT_LE(stats->subproblems, 4u);
  // A capped search over 10 predicates must return essentially instantly.
  EXPECT_LT(elapsed, 5.0);

  // The degradation is visible in the explanation.
  const StatusOr<std::string> why = est.TryExplain(query_);
  ASSERT_TRUE(why.ok());
  EXPECT_NE(why.value().find("budget exhausted"), std::string::npos);
  EXPECT_NE(why.value().find("degraded"), std::string::npos);
}

TEST_F(BudgetTest, AtomicDecompositionCapBites) {
  // The cap is a hard ceiling at every size, including caps reached while
  // candidate loops further up the recursion are still open. Unlimited,
  // the search scores more than the largest cap, so every cap bites.
  Estimator unlimited(&catalog_, &pool_);
  ASSERT_TRUE(unlimited.TryEstimateSelectivity(query_).ok());
  ASSERT_GT(unlimited.StatsFor(query_)->atomic_considered, 512u);
  for (const uint64_t cap : {1, 2, 3, 5, 8, 16, 64, 100, 512}) {
    SCOPED_TRACE(cap);
    EstimationBudget budget;
    budget.max_atomic_decompositions = cap;
    Estimator est(&catalog_, &pool_, Ranking::kDiff, budget);
    const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
    ASSERT_TRUE(sel.ok());
    EXPECT_GE(*sel, 0.0);
    EXPECT_LE(*sel, 1.0);
    const GsStats* stats = est.StatsFor(query_);
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->budget_exhausted);
    EXPECT_LE(stats->atomic_considered, cap);
  }
}

TEST_F(BudgetTest, BudgetAppliesToLiveSessions) {
  Estimator est(&catalog_, &pool_);
  // Warm a session on a subset, then tighten the budget: the same
  // memoized search must honour the new cap for the un-computed subsets.
  ASSERT_TRUE(est.TryEstimateSelectivity(query_, 0b1).ok());
  EstimationBudget tiny;
  tiny.max_subproblems = 1;  // already spent
  est.set_budget(tiny);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok());
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->budget_exhausted);
}

TEST_F(BudgetTest, DeadlineExpiryDegradesDeterministically) {
  EstimationBudget budget;
  budget.deadline_seconds = 3600.0;  // generous: only the fault expires it
  Estimator est(&catalog_, &pool_, Ranking::kDiff, budget);
  ScopedFault expire(Fault::kExpireDeadline);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->budget_exhausted);
  EXPECT_GT(stats->degraded_subproblems, 0u);
}

TEST_F(BudgetTest, DeadlineFaultIgnoredWithoutDeadline) {
  // The expiry fault only fires when a deadline is actually configured;
  // an unlimited search must be unaffected.
  Estimator est(&catalog_, &pool_);
  ScopedFault expire(Fault::kExpireDeadline);
  ASSERT_TRUE(est.TryEstimateSelectivity(query_).ok());
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_FALSE(stats->budget_exhausted);
}

TEST(DeadlineTest, ArmBeyondTheClockRangeIsNoDeadline) {
  // steady_clock counts int64 nanoseconds, about 292 years. A deadline it
  // cannot represent, and NaN, mean no deadline, as seconds <= 0 does.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double seconds :
       {1e10, 1e300, kInf, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(seconds);
    Deadline deadline;
    deadline.Arm(1e-9);  // an armed, expired deadline is replaced
    deadline.Arm(seconds);
    EXPECT_FALSE(deadline.armed());
    EXPECT_FALSE(deadline.Expired());
  }
  // A long deadline the clock can represent stays armed.
  Deadline deadline;
  deadline.Arm(1e9);
  EXPECT_TRUE(deadline.armed());
  EXPECT_FALSE(deadline.Expired());
}

TEST_F(BudgetTest, DeadlineBeyondTheClockRangeIsNoDeadline) {
  Estimator unbudgeted(&catalog_, &pool_);
  const StatusOr<double> want = unbudgeted.TryEstimateSelectivity(query_);
  ASSERT_TRUE(want.ok());
  EstimationBudget budget;
  budget.deadline_seconds = 1e10;  // past steady_clock's range
  Estimator est(&catalog_, &pool_, Ranking::kDiff, budget);
  const StatusOr<double> got = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::memcmp(&*got, &*want, sizeof(double)), 0)
      << *got << " vs unbudgeted " << *want;
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_FALSE(stats->budget_exhausted);
  EXPECT_EQ(stats->degraded_subproblems, 0u);
}

TEST_F(BudgetTest, DeadlineNotOvershotByPathologicalLookups) {
  // Regression: the deadline used to be consulted only between memo
  // subproblems, so a pathological candidate fan-out (here: every
  // provider scoring pass injected with a slow lookup) could overshoot
  // deadline_seconds by orders of magnitude. The gates now sit inside
  // candidate enumeration and the provider's scoring loops; the wall
  // clock must land near the deadline — unchecked, this query's
  // thousands of 2ms lookups would run for many seconds.
  EstimationBudget budget;
  budget.deadline_seconds = 0.2;
  Estimator est(&catalog_, &pool_, Ranking::kDiff, budget);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<double> sel = Status::Internal("unset");
  {
    ScopedFault slow(Fault::kSlowAtomicLookup);
    sel = est.TryEstimateSelectivity(query_);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  // 5x headroom over the configured deadline absorbs scheduler jitter and
  // the one in-flight lookup per gate, while still failing loudly if the
  // enumeration loops ever lose their deadline checks.
  EXPECT_LT(elapsed, 5.0 * budget.deadline_seconds);
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->budget_exhausted);
}

TEST_F(BudgetTest, DegradedEstimateStaysCloseToIndependence) {
  // A search whose deadline expired before the first subset must equal the
  // product of the single-predicate base estimates — the documented
  // fallback semantics.
  EstimationBudget expired;
  expired.deadline_seconds = 3600.0;
  Estimator degraded(&catalog_, &pool_, Ranking::kDiff, expired);
  StatusOr<double> sel = Status::Internal("unset");
  {
    ScopedFault expire(Fault::kExpireDeadline);
    sel = degraded.TryEstimateSelectivity(query_);
  }
  ASSERT_TRUE(sel.ok());

  Estimator unconstrained(&catalog_, &pool_);
  double product = 1.0;
  for (int i = 0; i < query_.num_predicates(); ++i) {
    product *= unconstrained.TryEstimateSelectivity(query_, 1u << i).value();
  }
  EXPECT_NEAR(*sel, SanitizeSelectivity(product), 1e-9);
}

// ---------------------------------------------------------------------------
// Fault injection through the full stack.

TEST_F(BudgetTest, DroppedSitsDegradeWithoutAborting) {
  Estimator est(&catalog_, &pool_);
  ScopedFault drop(Fault::kDropSits);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(std::isfinite(*sel));
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  // With every SIT (including base histograms) gone, each predicate
  // contributes the neutral 1.0 default.
  const GsStats* stats = est.StatsFor(query_);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->degraded_subproblems + stats->default_fallbacks, 0u);
}

TEST_F(BudgetTest, CorruptHistogramsAreSanitizedToValidRange) {
  Estimator est(&catalog_, &pool_);
  ScopedFault corrupt(Fault::kCorruptHistograms);
  const StatusOr<double> sel = est.TryEstimateSelectivity(query_);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_TRUE(std::isfinite(*sel));
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
  const StatusOr<double> card = est.TryEstimateCardinality(query_);
  ASSERT_TRUE(card.ok());
  EXPECT_TRUE(std::isfinite(*card));
}

// ---------------------------------------------------------------------------
// Recoverable evaluator entry points.

TEST_F(RobustnessTest, EvaluatorTryCardinalityValidates) {
  const StatusOr<double> good =
      eval_.TryCardinality(query_, query_.all_predicates());
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(*good,
                   eval_.Cardinality(query_, query_.all_predicates()));

  const StatusOr<double> foreign = eval_.TryCardinality(query_, 0b100);
  EXPECT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);

  const Query bad({Predicate::Filter({9, 0}, 1, 5)});
  const StatusOr<double> missing =
      eval_.TryCardinality(bad, bad.all_predicates());
  EXPECT_FALSE(missing.ok());
}

TEST_F(RobustnessTest, EvaluatorTryTrueSelectivityInRange) {
  const StatusOr<double> sel =
      eval_.TryTrueSelectivity(query_, query_.all_predicates());
  ASSERT_TRUE(sel.ok());
  EXPECT_GE(*sel, 0.0);
  EXPECT_LE(*sel, 1.0);
}

TEST_F(RobustnessTest, CatalogTryResolveColumn) {
  const StatusOr<ColumnRef> ok = catalog_.TryResolveColumn("R", "a");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().table, 0);
  EXPECT_EQ(ok.value().column, 0);
  EXPECT_EQ(catalog_.TryResolveColumn("nope", "a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog_.TryResolveColumn("R", "nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace condsel
