// Unit tests for the SQL parser (the subset SODA generates and the gold
// standards use).

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace soda {
namespace {

TEST(SqlParserTest, SelectStar) {
  auto stmt = ParseSql("SELECT * FROM parties");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->select_star());
  ASSERT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].table, "parties");
}

TEST(SqlParserTest, PaperQuery1) {
  auto stmt = ParseSql(
      "SELECT * FROM parties, individuals "
      "WHERE parties.id = individuals.id "
      "AND individuals.firstName = 'Sara' "
      "AND individuals.lastName = 'Guttinger'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->from.size(), 2u);
  ASSERT_EQ(stmt->where.size(), 3u);
  EXPECT_TRUE(stmt->where[0].IsJoinCondition());
  EXPECT_FALSE(stmt->where[1].IsJoinCondition());
  EXPECT_EQ(stmt->where[1].rhs.literal, Value::Str("Sara"));
}

TEST(SqlParserTest, PaperQuery3Aggregation) {
  auto stmt = ParseSql(
      "SELECT sum(amount), transactiondate FROM fi_transactions "
      "GROUP BY transactiondate");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_TRUE(stmt->items[0].expr.is_aggregate());
  EXPECT_EQ(stmt->items[0].expr.agg, AggFunc::kSum);
  ASSERT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->group_by[0].column, "transactiondate");
}

TEST(SqlParserTest, PaperQuery4OrderByDesc) {
  auto stmt = ParseSql(
      "SELECT count(fi_transactions.id), companyname "
      "FROM transactions, fi_transactions, organizations "
      "WHERE transactions.id = fi_transactions.id "
      "AND transactions.toParty = organizations.id "
      "GROUP BY organizations.companyname "
      "ORDER BY count(fi_transactions.id) desc");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_TRUE(stmt->order_by[0].expr.is_aggregate());
}

TEST(SqlParserTest, DateLiteral) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE d > DATE '2011-09-01'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->where.size(), 1u);
  EXPECT_EQ(stmt->where[0].rhs.literal.type(), ValueType::kDate);
  EXPECT_EQ(stmt->where[0].op, CompareOp::kGt);
}

TEST(SqlParserTest, BetweenDesugarsToTwoConjuncts) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE d BETWEEN DATE '2010-01-01' AND "
      "DATE '2010-12-31'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->where.size(), 2u);
  EXPECT_EQ(stmt->where[0].op, CompareOp::kGe);
  EXPECT_EQ(stmt->where[1].op, CompareOp::kLe);
}

TEST(SqlParserTest, CountDistinct) {
  auto stmt = ParseSql("SELECT count(DISTINCT indvl_td.id) FROM indvl_td");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->items[0].expr.agg_distinct);
}

TEST(SqlParserTest, CountStar) {
  auto stmt = ParseSql("SELECT count(*) FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->items[0].expr.agg_star);
}

TEST(SqlParserTest, SumStarRejected) {
  EXPECT_FALSE(ParseSql("SELECT sum(*) FROM t").ok());
}

TEST(SqlParserTest, Aliases) {
  auto stmt = ParseSql(
      "SELECT t.id AS pid FROM trades t WHERE t.id = 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->items[0].alias, "pid");
  EXPECT_EQ(stmt->from[0].alias, "t");
  EXPECT_EQ(stmt->from[0].qualifier(), "t");
}

TEST(SqlParserTest, DistinctLimit) {
  auto stmt = ParseSql("SELECT DISTINCT a FROM t LIMIT 20");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->distinct);
  EXPECT_EQ(stmt->limit, 20);
}

TEST(SqlParserTest, LikePredicate) {
  auto stmt = ParseSql("SELECT * FROM t WHERE name LIKE '%Suisse%'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where[0].op, CompareOp::kLike);
}

TEST(SqlParserTest, EscapedQuoteInString) {
  auto stmt = ParseSql("SELECT * FROM t WHERE name = 'O''Brien'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where[0].rhs.literal, Value::Str("O'Brien"));
}

TEST(SqlParserTest, CommentsAndSemicolon) {
  auto stmt = ParseSql(
      "SELECT * FROM t -- trailing comment\nWHERE a = 1;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
}

TEST(SqlParserTest, BooleanAndNullLiterals) {
  auto stmt = ParseSql("SELECT * FROM t WHERE a = TRUE AND b = NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where[0].rhs.literal, Value::Bool(true));
  EXPECT_TRUE(stmt->where[1].rhs.literal.is_null());
}

TEST(SqlParserTest, NumericLiterals) {
  auto stmt = ParseSql("SELECT * FROM t WHERE a >= 3.5 AND b <> 42");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where[0].rhs.literal.type(), ValueType::kDouble);
  EXPECT_EQ(stmt->where[1].op, CompareOp::kNe);
}

TEST(SqlParserTest, LimitZeroAndInt64Bounds) {
  auto stmt = ParseSql(
      "SELECT * FROM t WHERE a = 9223372036854775807 "
      "AND b = -9223372036854775808 LIMIT 0");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where[0].rhs.literal, Value::Int(INT64_MAX));
  EXPECT_EQ(stmt->where[1].rhs.literal, Value::Int(INT64_MIN));
  EXPECT_EQ(stmt->limit, 0);
}

// Error cases: every malformed input must fail with kParseError, never
// crash or mis-parse.
class SqlParserErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SqlParserErrorTest, RejectsMalformed) {
  auto stmt = ParseSql(GetParam());
  EXPECT_FALSE(stmt.ok()) << "should reject: " << GetParam();
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SqlParserErrorTest,
    ::testing::Values("", "SELECT", "SELECT FROM t", "SELECT * FROM",
                      "SELECT * WHERE a = 1", "SELECT * FROM t WHERE",
                      "SELECT * FROM t WHERE a", "SELECT * FROM t WHERE a =",
                      "SELECT * FROM t GROUP", "SELECT * FROM t LIMIT x",
                      "SELECT * FROM t ORDER a", "SELECT a, FROM t",
                      "SELECT * FROM t WHERE name = 'unterminated",
                      "SELECT * FROM t trailing garbage ! here",
                      "SELECT count(a FROM t",
                      "SELECT * FROM t WHERE d = DATE '2011-13-01'",
                      "SELECT * FROM t LIMIT -1",
                      "SELECT * FROM t WHERE a = 99999999999999999999",
                      "SELECT * FROM t LIMIT 99999999999999999999"));

}  // namespace
}  // namespace soda
