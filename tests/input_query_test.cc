// Unit tests for SODA's input pattern parser (Section 4.2.2 / 4.3).

#include <gtest/gtest.h>

#include "core/input_query.h"

namespace soda {
namespace {

using Kind = InputElement::Kind;

TEST(InputQueryTest, PlainKeywords) {
  auto q = ParseInputQuery("Private customers Switzerland");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 1u);
  EXPECT_EQ(q->elements[0].kind, Kind::kKeywords);
  EXPECT_EQ(q->elements[0].words.size(), 3u);
}

TEST(InputQueryTest, PaperQuery2) {
  // "salary >= x and birthday = date(1981-04-23)"
  auto q = ParseInputQuery("salary >= x and birthday = date(1981-04-23)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 7u);
  EXPECT_EQ(q->elements[0].kind, Kind::kKeywords);  // salary
  EXPECT_EQ(q->elements[1].kind, Kind::kComparison);
  EXPECT_EQ(q->elements[1].op, CompareOp::kGe);
  EXPECT_EQ(q->elements[2].kind, Kind::kKeywords);  // x (operand)
  EXPECT_EQ(q->elements[3].kind, Kind::kConnector);
  EXPECT_TRUE(q->elements[3].connector_is_and);
  EXPECT_EQ(q->elements[4].kind, Kind::kKeywords);  // birthday
  EXPECT_EQ(q->elements[5].kind, Kind::kComparison);
  EXPECT_EQ(q->elements[5].op, CompareOp::kEq);
  EXPECT_EQ(q->elements[6].kind, Kind::kDate);
  EXPECT_EQ(q->elements[6].date.ToString(), "1981-04-23");
}

TEST(InputQueryTest, DateOperator) {
  auto q = ParseInputQuery("period > date(2011-09-01)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 3u);
  EXPECT_EQ(q->elements[2].kind, Kind::kDate);
  EXPECT_EQ(q->elements[2].date.ToString(), "2011-09-01");
}

TEST(InputQueryTest, MalformedDateFails) {
  EXPECT_FALSE(ParseInputQuery("period > date(2011-13-01)").ok());
  EXPECT_FALSE(ParseInputQuery("period > date(yesterday)").ok());
}

TEST(InputQueryTest, BetweenRange) {
  auto q = ParseInputQuery(
      "transaction date between date(2010-01-01) date(2010-12-31)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 4u);
  EXPECT_EQ(q->elements[1].kind, Kind::kBetween);
  EXPECT_EQ(q->elements[2].kind, Kind::kDate);
  EXPECT_EQ(q->elements[3].kind, Kind::kDate);
}

TEST(InputQueryTest, AggregationWithArgument) {
  auto q = ParseInputQuery("sum(amount)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 1u);
  EXPECT_EQ(q->elements[0].kind, Kind::kAggregation);
  EXPECT_EQ(q->elements[0].agg, AggFunc::kSum);
  EXPECT_EQ(q->elements[0].agg_argument, "amount");
  EXPECT_TRUE(q->HasAggregation());
}

TEST(InputQueryTest, AggregationSeparatedParens) {
  // The paper writes "sum (amount)" with a space (Query 3).
  auto q = ParseInputQuery("sum (amount) group by (transaction date)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 2u);
  EXPECT_EQ(q->elements[0].kind, Kind::kAggregation);
  EXPECT_EQ(q->elements[0].agg_argument, "amount");
  EXPECT_EQ(q->elements[1].kind, Kind::kGroupBy);
  ASSERT_EQ(q->elements[1].group_by_phrases.size(), 1u);
  EXPECT_EQ(q->elements[1].group_by_phrases[0], "transaction date");
  EXPECT_TRUE(q->HasGroupBy());
}

TEST(InputQueryTest, EmptyCount) {
  auto q = ParseInputQuery("select count() private customers Switzerland");
  ASSERT_TRUE(q.ok()) << q.status();
  // "select" is a plain keyword (classification will ignore it).
  ASSERT_GE(q->elements.size(), 3u);
  EXPECT_EQ(q->elements[0].kind, Kind::kKeywords);
  EXPECT_EQ(q->elements[1].kind, Kind::kAggregation);
  EXPECT_TRUE(q->elements[1].agg_argument.empty());
  EXPECT_EQ(q->elements[2].kind, Kind::kKeywords);
}

TEST(InputQueryTest, GroupByMultipleAttributes) {
  auto q = ParseInputQuery("sum(investments) group by (currency, country)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 2u);
  ASSERT_EQ(q->elements[1].group_by_phrases.size(), 2u);
  EXPECT_EQ(q->elements[1].group_by_phrases[1], "country");
}

TEST(InputQueryTest, TopN) {
  auto q = ParseInputQuery("Top 10 trading volume customer");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_GE(q->elements.size(), 2u);
  EXPECT_EQ(q->elements[0].kind, Kind::kTopN);
  EXPECT_EQ(q->elements[0].integer, 10);
  EXPECT_EQ(q->elements[1].kind, Kind::kKeywords);
}

TEST(InputQueryTest, TopWithoutNumberIsKeyword) {
  auto q = ParseInputQuery("top performer");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 1u);
  EXPECT_EQ(q->elements[0].kind, Kind::kKeywords);
  EXPECT_EQ(q->elements[0].words[0], "top");
}

TEST(InputQueryTest, TopNeedsAPositiveCount) {
  for (const char* text : {"top -1 Zurich", "top 0 Zurich"}) {
    auto q = ParseInputQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status();
    for (const InputElement& e : q->elements) {
      EXPECT_NE(e.kind, Kind::kTopN) << text;
    }
  }
}

// A token too large for its type is a keyword, not a number (and never
// an exception out of the parser).
TEST(InputQueryTest, OutOfRangeNumbersAreKeywords) {
  auto q = ParseInputQuery("Zurich 99999999999999999999");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 1u);
  EXPECT_EQ(q->elements[0].kind, Kind::kKeywords);
  EXPECT_EQ(q->elements[0].words.back(), "99999999999999999999");

  EXPECT_TRUE(ParseInputQuery("salary > 99999999999999999999").ok());
  EXPECT_TRUE(ParseInputQuery("top 99999999999999999999 Zurich").ok());

  auto max = ParseInputQuery("salary >= 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status();
  ASSERT_EQ(max->elements.size(), 3u);
  EXPECT_EQ(max->elements[2].kind, Kind::kNumber);
  EXPECT_EQ(max->elements[2].integer, INT64_MAX);
  auto over = ParseInputQuery("salary >= 9223372036854775808");
  ASSERT_TRUE(over.ok()) << over.status();
  for (const InputElement& e : over->elements) {
    EXPECT_NE(e.kind, Kind::kNumber);
  }
}

TEST(InputQueryTest, SignedNumbers) {
  auto q = ParseInputQuery("rate >= +2 and rate <= -1.5");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 7u);
  EXPECT_EQ(q->elements[2].kind, Kind::kNumber);
  EXPECT_EQ(q->elements[2].integer, 2);
  EXPECT_EQ(q->elements[6].kind, Kind::kNumber);
  EXPECT_DOUBLE_EQ(q->elements[6].number, -1.5);
}

TEST(InputQueryTest, NumbersBecomeLiterals) {
  auto q = ParseInputQuery("salary >= 500000");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 3u);
  EXPECT_EQ(q->elements[2].kind, Kind::kNumber);
  EXPECT_TRUE(q->elements[2].number_is_integer);
  EXPECT_EQ(q->elements[2].integer, 500000);
}

TEST(InputQueryTest, FloatLiteral) {
  auto q = ParseInputQuery("rate >= 2.5");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->elements[2].kind, Kind::kNumber);
  EXPECT_FALSE(q->elements[2].number_is_integer);
  EXPECT_DOUBLE_EQ(q->elements[2].number, 2.5);
}

TEST(InputQueryTest, AllComparisonOperators) {
  for (const auto& [text, op] :
       std::initializer_list<std::pair<const char*, CompareOp>>{
           {">", CompareOp::kGt},
           {">=", CompareOp::kGe},
           {"=", CompareOp::kEq},
           {"<=", CompareOp::kLe},
           {"<", CompareOp::kLt},
           {"like", CompareOp::kLike}}) {
    auto q = ParseInputQuery(std::string("salary ") + text + " 100");
    ASSERT_TRUE(q.ok()) << text;
    ASSERT_GE(q->elements.size(), 2u) << text;
    EXPECT_EQ(q->elements[1].kind, Kind::kComparison) << text;
    EXPECT_EQ(q->elements[1].op, op) << text;
  }
}

TEST(InputQueryTest, OrConnector) {
  auto q = ParseInputQuery("Zurich or Geneva");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->elements.size(), 3u);
  EXPECT_EQ(q->elements[1].kind, Kind::kConnector);
  EXPECT_FALSE(q->elements[1].connector_is_and);
}

TEST(InputQueryTest, UnbalancedParensFail) {
  EXPECT_FALSE(ParseInputQuery("sum(amount").ok());
  EXPECT_FALSE(ParseInputQuery("group by (a, b").ok());
}

TEST(InputQueryTest, ToStringIsInformative) {
  auto q = ParseInputQuery("top 5 sum(amount) group by (currency)");
  ASSERT_TRUE(q.ok());
  std::string s = q->ToString();
  EXPECT_NE(s.find("top[5]"), std::string::npos);
  EXPECT_NE(s.find("agg[sum(amount)]"), std::string::npos);
  EXPECT_NE(s.find("groupby[currency]"), std::string::npos);
}

}  // namespace
}  // namespace soda
