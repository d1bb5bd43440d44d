// Unit tests for the SQL executor.

#include <gtest/gtest.h>

#include <iterator>
#include <limits>

#include "datasets/minibank.h"
#include "reference_executor.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace soda {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* parties = *db_.CreateTable(
        "parties", {{"id", ValueType::kInt64}, {"type", ValueType::kString}});
    Table* individuals = *db_.CreateTable(
        "individuals", {{"id", ValueType::kInt64},
                        {"name", ValueType::kString},
                        {"salary", ValueType::kInt64},
                        {"birthday", ValueType::kDate}});
    Table* orders = *db_.CreateTable(
        "orders", {{"id", ValueType::kInt64},
                   {"party", ValueType::kInt64},
                   {"amount", ValueType::kDouble},
                   {"currency", ValueType::kString}});
    struct P {
      int64_t id;
      const char* name;
      int64_t salary;
      const char* birthday;
    };
    for (const P& p : std::initializer_list<P>{
             {1, "Sara", 900, "1981-04-23"},
             {2, "Bruno", 500, "1975-01-15"},
             {3, "Carla", 1200, "1990-07-30"}}) {
      ASSERT_TRUE(parties->Append({Value::Int(p.id),
                                   Value::Str("individual")}).ok());
      ASSERT_TRUE(individuals
                      ->Append({Value::Int(p.id), Value::Str(p.name),
                                Value::Int(p.salary),
                                Value::DateV(*Date::Parse(p.birthday))})
                      .ok());
    }
    struct O {
      int64_t id, party;
      double amount;
      const char* currency;
    };
    for (const O& o : std::initializer_list<O>{{10, 1, 100.0, "CHF"},
                                               {11, 1, 250.0, "YEN"},
                                               {12, 2, 75.0, "CHF"},
                                               {13, 3, 300.0, "YEN"},
                                               {14, 3, 125.0, "YEN"}}) {
      ASSERT_TRUE(orders
                      ->Append({Value::Int(o.id), Value::Int(o.party),
                                Value::Real(o.amount),
                                Value::Str(o.currency)})
                      .ok());
    }
    executor_ = std::make_unique<Executor>(&db_);
  }

  ResultSet Run(const std::string& sql) {
    auto rs = executor_->ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? *rs : ResultSet{};
  }

  Database db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, FullScan) {
  ResultSet rs = Run("SELECT * FROM individuals");
  EXPECT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.num_columns(), 4u);
  EXPECT_EQ(rs.column_names[1], "individuals.name");
}

TEST_F(ExecutorTest, FilterEquality) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE name = 'Sara'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
}

TEST_F(ExecutorTest, FilterRange) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE salary >= 900");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(ExecutorTest, FilterDate) {
  ResultSet rs = Run(
      "SELECT * FROM individuals WHERE birthday > DATE '1980-01-01'");
  EXPECT_EQ(rs.num_rows(), 2u);  // Sara and Carla
}

TEST_F(ExecutorTest, HashJoin) {
  ResultSet rs = Run(
      "SELECT individuals.name, orders.amount FROM individuals, orders "
      "WHERE orders.party = individuals.id");
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  ResultSet rs = Run(
      "SELECT * FROM parties, individuals, orders "
      "WHERE individuals.id = parties.id "
      "AND orders.party = individuals.id "
      "AND orders.currency = 'YEN'");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(ExecutorTest, CrossProductWhenNoJoinCondition) {
  ResultSet rs = Run("SELECT * FROM parties, orders");
  EXPECT_EQ(rs.num_rows(), 15u);  // 3 x 5
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  ResultSet rs = Run(
      "SELECT sum(orders.amount), count(*), orders.currency FROM orders "
      "GROUP BY orders.currency ORDER BY orders.currency");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][2], Value::Str("CHF"));
  EXPECT_EQ(rs.rows[0][0], Value::Real(175.0));
  EXPECT_EQ(rs.rows[0][1], Value::Int(2));
  EXPECT_EQ(rs.rows[1][0], Value::Real(675.0));
}

TEST_F(ExecutorTest, AggregateWithoutGroupBy) {
  ResultSet rs = Run("SELECT count(*), sum(amount), avg(amount), "
                     "min(amount), max(amount) FROM orders");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(5));
  EXPECT_EQ(rs.rows[0][1], Value::Real(850.0));
  EXPECT_EQ(rs.rows[0][2], Value::Real(170.0));
  EXPECT_EQ(rs.rows[0][3], Value::Real(75.0));
  EXPECT_EQ(rs.rows[0][4], Value::Real(300.0));
}

TEST_F(ExecutorTest, CountDistinct) {
  ResultSet rs = Run("SELECT count(DISTINCT orders.party) FROM orders");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, CountStarOnEmptyInputIsZero) {
  ResultSet rs = Run("SELECT count(*) FROM orders WHERE amount > 99999");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(0));
}

TEST_F(ExecutorTest, SumOfEmptyIsNull) {
  ResultSet rs = Run("SELECT sum(amount) FROM orders WHERE amount > 99999");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

TEST_F(ExecutorTest, OrderByDescWithLimit) {
  ResultSet rs = Run(
      "SELECT orders.id, orders.amount FROM orders "
      "ORDER BY orders.amount DESC LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][1], Value::Real(300.0));
  EXPECT_EQ(rs.rows[1][1], Value::Real(250.0));
}

TEST_F(ExecutorTest, OrderByAggregate) {
  ResultSet rs = Run(
      "SELECT count(*), orders.party FROM orders GROUP BY orders.party "
      "ORDER BY count(*) DESC, orders.party");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));  // parties 1 and 3 tie at 2
  EXPECT_EQ(rs.rows[1][1], Value::Int(3));
}

TEST_F(ExecutorTest, Distinct) {
  ResultSet rs = Run("SELECT DISTINCT orders.currency FROM orders");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(ExecutorTest, LikeFilter) {
  ResultSet rs = Run("SELECT * FROM individuals WHERE name LIKE 'S%'");
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  auto rs = executor_->ExecuteSql("SELECT * FROM missing");
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  auto rs = executor_->ExecuteSql("SELECT nope FROM orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, AmbiguousColumnFails) {
  auto rs = executor_->ExecuteSql(
      "SELECT id FROM parties, individuals "
      "WHERE parties.id = individuals.id");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, UngroupedColumnWithAggregateFails) {
  auto rs = executor_->ExecuteSql(
      "SELECT orders.currency, count(*) FROM orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, DuplicateQualifierFails) {
  auto rs = executor_->ExecuteSql("SELECT * FROM orders, orders");
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, NullNeverJoins) {
  Table* t = *db_.CreateTable("with_nulls", {{"ref", ValueType::kInt64}});
  t->AppendUnchecked({Value::Null()});
  t->AppendUnchecked({Value::Int(1)});
  ResultSet rs = Run(
      "SELECT * FROM with_nulls, individuals "
      "WHERE with_nulls.ref = individuals.id");
  EXPECT_EQ(rs.num_rows(), 1u);
}

// Equality is Value::Compare() == 0 everywhere — never the rendered
// literal, which prints 1234567.0 and 1234568.0 alike as 1.23457e+06.
class ValueEqualityTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    Table* amounts = *db_.CreateTable(
        "amounts", {{"id", ValueType::kInt64}, {"amt", ValueType::kDouble}});
    ASSERT_TRUE(amounts->Append({Value::Int(1), Value::Real(1234567.0)}).ok());
    ASSERT_TRUE(amounts->Append({Value::Int(2), Value::Real(1234568.0)}).ok());
    Table* ints = *db_.CreateTable("ints", {{"n", ValueType::kInt64}});
    ASSERT_TRUE(ints->Append({Value::Int(1000000)}).ok());
    Table* reals = *db_.CreateTable("reals", {{"x", ValueType::kDouble}});
    ASSERT_TRUE(reals->Append({Value::Real(1e6)}).ok());
    ASSERT_TRUE(reals->Append({Value::Real(2e6)}).ok());
  }
};

TEST_F(ValueEqualityTest, GroupByKeepsValuesThatRenderAlike) {
  ResultSet rs = Run("SELECT amt, count(*) FROM amounts GROUP BY amt");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(1234567.0));
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));
  EXPECT_EQ(rs.rows[1][0], Value::Real(1234568.0));
  EXPECT_EQ(rs.rows[1][1], Value::Int(1));
}

TEST_F(ValueEqualityTest, CountDistinctByValue) {
  ResultSet rs = Run("SELECT count(DISTINCT amt) FROM amounts");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(2));
}

TEST_F(ValueEqualityTest, DistinctByValue) {
  ResultSet rs = Run("SELECT DISTINCT amt FROM amounts");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Real(1234567.0));
  EXPECT_EQ(rs.rows[1][0], Value::Real(1234568.0));
}

TEST_F(ValueEqualityTest, JoinKeyByValue) {
  ResultSet rs = Run(
      "SELECT p.id, q.id FROM amounts p, amounts q WHERE p.amt = q.amt");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1));
  EXPECT_EQ(rs.rows[0][1], Value::Int(1));
  EXPECT_EQ(rs.rows[1][0], Value::Int(2));
  EXPECT_EQ(rs.rows[1][1], Value::Int(2));
}

// A hash-join key agrees with the WHERE comparison: int 1000000 equals
// double 1e6.
TEST_F(ValueEqualityTest, JoinIntAgainstDouble) {
  ResultSet rs = Run("SELECT q.n, r.x FROM ints q, reals r WHERE q.n = r.x");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::Int(1000000));
  EXPECT_EQ(rs.rows[0][1], Value::Real(1e6));
}

// Doubles outside the int64 range (and infinities) hash without an
// out-of-range cast, so they group and join by value like any other.
TEST_F(ValueEqualityTest, GroupAndJoinOnHugeDoubles) {
  Table* huge = *db_.CreateTable(
      "huge", {{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(huge->Append({Value::Int(1), Value::Real(1e20)}).ok());
  ASSERT_TRUE(huge->Append({Value::Int(2), Value::Real(1e20)}).ok());
  ASSERT_TRUE(huge->Append({Value::Int(3), Value::Real(3e20)}).ok());
  ASSERT_TRUE(huge->Append({Value::Int(4), Value::Real(inf)}).ok());

  ResultSet groups = Run("SELECT v, count(*) FROM huge GROUP BY v");
  ASSERT_EQ(groups.num_rows(), 3u);
  EXPECT_EQ(groups.rows[0][0], Value::Real(1e20));
  EXPECT_EQ(groups.rows[0][1], Value::Int(2));
  EXPECT_EQ(groups.rows[1][0], Value::Real(3e20));
  EXPECT_EQ(groups.rows[1][1], Value::Int(1));
  EXPECT_EQ(groups.rows[2][0], Value::Real(inf));
  EXPECT_EQ(groups.rows[2][1], Value::Int(1));

  ResultSet joined =
      Run("SELECT p.id, q.id FROM huge p, huge q WHERE p.v = q.v");
  const int64_t want[][2] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3}, {4, 4}};
  ASSERT_EQ(joined.num_rows(), std::size(want));
  for (size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(joined.rows[i][0], Value::Int(want[i][0])) << i;
    EXPECT_EQ(joined.rows[i][1], Value::Int(want[i][1])) << i;
  }
}

// Work counters of a 3-table statement on the mini-bank: the seed scan
// (parties, 70 rows) streams, the hash sides (individuals, 50 rows;
// transactions, 500 rows) are read once each on first probe.
class ExecStatsTest : public ::testing::Test {
 protected:
  static constexpr const char* kSql =
      "SELECT parties.id, transactions.id FROM parties, individuals, "
      "transactions WHERE individuals.id = parties.id "
      "AND transactions.fromParty = parties.id";

  ExecStats Stats(const std::string& sql, size_t* rows) {
    auto bank = BuildMiniBank();
    EXPECT_TRUE(bank.ok()) << bank.status();
    Executor executor(&(*bank)->db);
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    ExecStats stats;
    auto rs = executor.Execute(*stmt, &stats);
    EXPECT_TRUE(rs.ok()) << rs.status();
    *rows = rs.ok() ? rs->num_rows() : 0;
    auto want = ReferenceExecutor(&(*bank)->db).Execute(*stmt);
    EXPECT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(*rows, want.ok() ? want->num_rows() : 0);
    return stats;
  }
};

TEST_F(ExecStatsTest, FullRun) {
  size_t rows = 0;
  ExecStats stats = Stats(kSql, &rows);
  EXPECT_EQ(stats.tables, 3u);
  EXPECT_EQ(stats.rows_scanned, 70u + 50u + 500u);
  EXPECT_EQ(stats.tuples_emitted, 365u);
  EXPECT_EQ(stats.rows_output, 365u);
  EXPECT_EQ(rows, 365u);
  EXPECT_FALSE(stats.early_stopped);
}

TEST_F(ExecStatsTest, LimitStopsTheSeedScan) {
  size_t rows = 0;
  ExecStats stats = Stats(std::string(kSql) + " LIMIT 20", &rows);
  EXPECT_EQ(stats.tables, 3u);
  EXPECT_EQ(stats.rows_scanned, 3u + 50u + 500u);
  EXPECT_EQ(stats.tuples_emitted, 20u);
  EXPECT_EQ(stats.rows_output, 20u);
  EXPECT_EQ(rows, 20u);
  EXPECT_TRUE(stats.early_stopped);
}

// SQL LIKE semantics.
struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

class SqlLikeTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(SqlLikeTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(SqlLikeMatch(c.text, c.pattern), c.expected)
      << c.text << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SqlLikeTest,
    ::testing::Values(LikeCase{"Credit Suisse", "%Suisse%", true},
                      LikeCase{"Credit Suisse", "Credit%", true},
                      LikeCase{"Credit Suisse", "%Credit", false},
                      LikeCase{"Sara", "S_ra", true},
                      LikeCase{"Sara", "S_r", false},
                      LikeCase{"", "%", true},
                      LikeCase{"", "_", false},
                      LikeCase{"abc", "abc", true},
                      LikeCase{"abc", "ABC", false},  // case-sensitive
                      LikeCase{"a%b", "a%b", true},
                      LikeCase{"xyz", "%%%", true},
                      LikeCase{"mississippi", "%iss%ppi", true}));

}  // namespace
}  // namespace soda
