// Tests for the SQL-ish parser.

#include <gtest/gtest.h>

#include "condsel/common/rng.h"
#include "condsel/exec/evaluator.h"
#include "condsel/parser/parser.h"
#include "test_util.h"

namespace condsel {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : catalog_(test::MakeTinyCatalog()) {}
  Catalog catalog_;
};

TEST_F(ParserTest, MinimalQuery) {
  const StatusOr<Query> r =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM R");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_predicates(), 0);
}

TEST_F(ParserTest, JoinAndFilters) {
  const StatusOr<Query> r = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R, S WHERE R.x = S.y AND R.a BETWEEN 2 AND 6 "
      "AND S.b >= 100");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_predicates(), 3);
  EXPECT_EQ(SetSize(r.value().join_predicates()), 1);
  EXPECT_EQ(SetSize(r.value().filter_predicates()), 2);
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "select count(*) from R where R.a between 1 and 3");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_predicates(), 1);
}

TEST_F(ParserTest, ComparisonOperators) {
  const StatusOr<Query> r = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R WHERE R.a < 5 AND R.a > 1 AND R.x <= 30 "
      "AND R.x >= 10 AND R.a = 3");
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r.value().num_predicates(), 5);
  // "< 5" becomes [min, 4].
  EXPECT_EQ(r.value().predicate(0).hi(), 4);
  // "> 1" becomes [2, max].
  EXPECT_EQ(r.value().predicate(1).lo(), 2);
  // "= 3" is a degenerate range.
  EXPECT_EQ(r.value().predicate(4).lo(), 3);
  EXPECT_EQ(r.value().predicate(4).hi(), 3);
}

TEST_F(ParserTest, JoinCanonicalizedLikeApi) {
  const StatusOr<Query> a =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM R, S WHERE R.x = S.y");
  const StatusOr<Query> b =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM S, R WHERE S.y = R.x");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().predicate(0), b.value().predicate(0));
}

TEST_F(ParserTest, ErrorUnknownTable) {
  const StatusOr<Query> r =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM nope");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nope"), std::string::npos);
}

TEST_F(ParserTest, ErrorUnknownColumn) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.nope = 3");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("R.nope"), std::string::npos);
}

TEST_F(ParserTest, ErrorTableNotInFrom) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE S.b = 100");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("FROM"), std::string::npos);
}

TEST_F(ParserTest, ErrorSelfJoinListedTwice) {
  const StatusOr<Query> r =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM R, R");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, ErrorTrailingGarbage) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.a = 1 GROUP BY R.a");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, ErrorEmptyRange) {
  // R.a's declared domain starts at 0; "< 0" can never hold.
  const StatusOr<Query> r =
      ParseQuery(catalog_, "SELECT COUNT(*) FROM R WHERE R.a < 0");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("selects nothing"), std::string::npos);
}

TEST_F(ParserTest, ErrorBetweenOutOfOrder) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.a BETWEEN 9 AND 2");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, ErrorSameTableEquality) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.a = R.x");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, NegativeNumbers) {
  const StatusOr<Query> r = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.a BETWEEN -5 AND 3");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().predicate(0).lo(), -5);
}

TEST_F(ParserTest, ParsedQueryEvaluatesCorrectly) {
  // End to end: parse, evaluate, compare with a hand-built query.
  const StatusOr<Query> r = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R, S WHERE R.x = S.y AND R.a <= 5");
  ASSERT_TRUE(r.ok()) << r.status().message();
  CardinalityCache cache;
  Evaluator eval(&catalog_, &cache);
  const double parsed =
      eval.Cardinality(r.value(), r.value().all_predicates());
  const Query manual({Predicate::Join({0, 1}, {1, 0}),
                      Predicate::Filter({0, 0}, 0, 5)});
  EXPECT_DOUBLE_EQ(parsed,
                   eval.Cardinality(manual, manual.all_predicates()));
}

TEST_F(ParserTest, HardeningCorpusAlwaysCleanError) {
  // Adversarial inputs collected from the robustness pass: every one must
  // produce an error with a non-empty message — never a crash, hang, or
  // UB.
  const std::vector<std::string> corpus = {
      "",
      " ",
      "\t\n",
      "SELECT",
      "SELECT COUNT",
      "SELECT COUNT(",
      "SELECT COUNT(*",
      "SELECT COUNT(*)",
      "SELECT COUNT(*) FROM",
      "SELECT COUNT(*) FROM ,",
      "SELECT COUNT(*) FROM R,",
      "SELECT COUNT(*) FROM R WHERE",
      "SELECT COUNT(*) FROM R WHERE AND",
      "SELECT COUNT(*) FROM R WHERE R.a = 1 AND",
      "SELECT COUNT(*) FROM R WHERE R.a = 1 AND AND R.x = 2",
      "SELECT COUNT(*) FROM R WHERE R.",
      "SELECT COUNT(*) FROM R WHERE R.a",
      "SELECT COUNT(*) FROM R WHERE R.a =",
      "SELECT COUNT(*) FROM R WHERE R.a BETWEEN",
      "SELECT COUNT(*) FROM R WHERE R.a BETWEEN 1",
      "SELECT COUNT(*) FROM R WHERE R.a BETWEEN 1 AND",
      "SELECT COUNT(*) FROM R WHERE R.a <> 3",
      "SELECT COUNT(*) FROM R WHERE R.a != 3",
      "SELECT COUNT(*) FROM R WHERE R.a = R.a",
      "SELECT COUNT(*) FROM nope WHERE nope.a = 1",
      "SELECT COUNT(*) FROM R WHERE R.a = 99999999999999999999999999",
      "SELECT COUNT(*) FROM R WHERE R.a = -99999999999999999999999999",
      "SELECT COUNT(*) FROM R WHERE R.a BETWEEN -99999999999999999999 "
      "AND 99999999999999999999",
      "SELECT COUNT(*) FROM R WHERE R.a = 1 ; DROP TABLE R",
      std::string("SELECT COUNT(*) FROM R\0WHERE R.a = 1", 36),
      "SELECT COUNT(*) FROM R WHERE R.a = 0x10",
      "SELECT COUNT(*) FROM R WHERE R.a = 1.5",
      "select count ( * ) from",
  };
  for (const std::string& sql : corpus) {
    const StatusOr<Query> r = ParseQuery(catalog_, sql);
    EXPECT_FALSE(r.ok()) << "accepted: " << sql;
    EXPECT_FALSE(r.status().message().empty()) << sql;
  }
}

TEST_F(ParserTest, GiantLiteralIsRangeError) {
  // Out-of-int64 literals used to hit std::atoll's undefined overflow;
  // they must now surface as an explicit range error.
  const StatusOr<Query> r = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R WHERE R.a = 123456789012345678901234567890");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST_F(ParserTest, Int64ExtremesDoNotOverflow) {
  // "< INT64_MIN" / "> INT64_MAX" would need v∓1 outside int64; both are
  // rejected as empty predicates instead of overflowing.
  const StatusOr<Query> lo = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R WHERE R.a < -9223372036854775808");
  EXPECT_FALSE(lo.ok());
  const StatusOr<Query> hi = ParseQuery(
      catalog_,
      "SELECT COUNT(*) FROM R WHERE R.a > 9223372036854775807");
  EXPECT_FALSE(hi.ok());
  // Ordinary strict comparisons keep working.
  const StatusOr<Query> in = ParseQuery(
      catalog_, "SELECT COUNT(*) FROM R WHERE R.a < 1000");
  EXPECT_TRUE(in.ok()) << in.status().message();
}

TEST_F(ParserTest, FuzzedInputsNeverCrash) {
  // Random token soup: every outcome must be a clean ok/error result.
  Rng rng(31337);
  const std::vector<std::string> tokens = {
      "SELECT", "COUNT", "(", ")", "*", "FROM", "WHERE", "AND", "BETWEEN",
      "R", "S", "T", ".", ",", "a", "x", "y", "b", "z", "c", "=", "<",
      ">", "<=", ">=", "1", "42", "-7", "nope", "_x1", "<>",
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.NextBelow(24));
    for (int i = 0; i < len; ++i) {
      sql += tokens[static_cast<size_t>(rng.NextBelow(tokens.size()))];
      if (rng.NextBool(0.7)) sql += " ";
    }
    const StatusOr<Query> r = ParseQuery(catalog_, sql);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty()) << sql;
    }
  }
}

TEST_F(ParserTest, MutatedValidQueryNeverCrashes) {
  const std::string base =
      "SELECT COUNT(*) FROM R, S WHERE R.x = S.y AND R.a BETWEEN 2 AND 6";
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string sql = base;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(rng.NextBelow(sql.size()));
      switch (rng.NextBelow(3)) {
        case 0:
          sql[pos] = static_cast<char>('!' + rng.NextBelow(90));
          break;
        case 1:
          sql.erase(pos, 1);
          break;
        default:
          sql.insert(pos, 1,
                     static_cast<char>('!' + rng.NextBelow(90)));
          break;
      }
      if (sql.empty()) sql = " ";
    }
    StatusIgnored(ParseQuery(catalog_, sql));  // must not crash or hang
  }
}

}  // namespace
}  // namespace condsel
