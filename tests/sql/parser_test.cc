#include "sql/parser.h"

#include <gtest/gtest.h>

namespace muve::sql {
namespace {

SelectStatement MustParseSelect(const std::string& sql) {
  auto result = ParseSelect(sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  return result.ok() ? std::move(result).value() : SelectStatement{};
}

TEST(ParserTest, SelectStar) {
  auto stmt = MustParseSelect("SELECT * FROM players");
  ASSERT_EQ(stmt.items.size(), 1u);
  EXPECT_EQ(stmt.items[0].kind, SelectItem::Kind::kStar);
  EXPECT_EQ(stmt.table_name, "players");
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(ParserTest, PaperQueryQ) {
  // Q: SELECT * FROM players WHERE team=GSW (string literal quoted here).
  auto stmt = MustParseSelect("SELECT * FROM players WHERE team = 'GSW'");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->ToString(), "team = GSW");
}

TEST(ParserTest, PaperViewWithBins) {
  // V_{i,b}: SELECT A, F(M) ... GROUP BY A NUMBER OF BINS b.
  auto stmt = MustParseSelect(
      "SELECT MP, SUM(3PAr) FROM players WHERE team = 'GSW' "
      "GROUP BY MP NUMBER OF BINS 3");
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].column, "MP");
  EXPECT_EQ(stmt.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(stmt.items[1].function, storage::AggregateFunction::kSum);
  EXPECT_EQ(stmt.items[1].column, "3PAr");
  ASSERT_TRUE(stmt.group_by.has_value());
  EXPECT_EQ(*stmt.group_by, "MP");
  ASSERT_TRUE(stmt.num_bins.has_value());
  EXPECT_EQ(*stmt.num_bins, 3);
}

TEST(ParserTest, CountStarAndAliases) {
  auto stmt = MustParseSelect(
      "SELECT age AS years, COUNT(*) AS n FROM t GROUP BY age");
  EXPECT_EQ(stmt.items[0].alias, "years");
  EXPECT_TRUE(stmt.items[1].count_star);
  EXPECT_EQ(stmt.items[1].OutputName(), "n");
}

TEST(ParserTest, StarOnlyForCount) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, WherePrecedenceAndParens) {
  auto stmt = MustParseSelect(
      "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  // AND binds tighter than OR.
  EXPECT_EQ(stmt.where->ToString(), "(a = 1 OR (b = 2 AND c = 3))");

  auto grouped = MustParseSelect(
      "SELECT * FROM t WHERE (a = 1 OR b = 2) AND NOT c > 3");
  EXPECT_EQ(grouped.where->ToString(),
            "((a = 1 OR b = 2) AND NOT (c > 3))");
}

TEST(ParserTest, InListPredicate) {
  auto stmt = MustParseSelect(
      "SELECT * FROM t WHERE team IN ('GSW', 'CLE', 'SAS')");
  EXPECT_EQ(stmt.where->ToString(), "team IN (GSW, CLE, SAS)");
  auto numeric = MustParseSelect("SELECT * FROM t WHERE a IN (1, 2.5, 3)");
  EXPECT_EQ(numeric.where->ToString(), "a IN (1, 2.500000, 3)");
}

TEST(ParserTest, NotInPredicate) {
  auto stmt = MustParseSelect("SELECT * FROM t WHERE a NOT IN (1, 2)");
  EXPECT_EQ(stmt.where->ToString(), "NOT (a IN (1, 2))");
}

TEST(ParserTest, IsNullPredicates) {
  auto is_null = MustParseSelect("SELECT * FROM t WHERE a IS NULL");
  EXPECT_EQ(is_null.where->ToString(), "a IS NULL");
  auto not_null = MustParseSelect("SELECT * FROM t WHERE a IS NOT NULL");
  EXPECT_EQ(not_null.where->ToString(), "a IS NOT NULL");
}

TEST(ParserTest, MalformedInAndIsForms) {
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a IN ()").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a IN (1,").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a IS 3").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a NOT 1").ok());
}

TEST(ParserTest, BetweenPredicate) {
  auto stmt = MustParseSelect(
      "SELECT * FROM t WHERE age BETWEEN 20 AND 30");
  EXPECT_EQ(stmt.where->ToString(), "age BETWEEN 20 AND 30");
}

TEST(ParserTest, OrderByAndLimit) {
  auto stmt = MustParseSelect(
      "SELECT a FROM t ORDER BY a DESC LIMIT 10");
  ASSERT_TRUE(stmt.order_by.has_value());
  EXPECT_EQ(stmt.order_by->column, "a");
  EXPECT_TRUE(stmt.order_by->descending);
  ASSERT_TRUE(stmt.limit.has_value());
  EXPECT_EQ(*stmt.limit, 10);
}

TEST(ParserTest, FloatAndNegations) {
  auto stmt = MustParseSelect("SELECT * FROM t WHERE w >= 2.5");
  EXPECT_EQ(stmt.where->ToString(), "w >= 2.500000");
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(ParseSelect("SELECT * FROM t;").ok());
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseSelect("SELECT * FROM t garbage").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto result = ParseSelect("SELECT FROM t");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("position"), std::string::npos);
}

TEST(ParserTest, MalformedStatements) {
  EXPECT_FALSE(ParseSelect("SELECT * players").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t GROUP age").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t GROUP BY a NUMBER BINS 3").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t GROUP BY a NUMBER OF BINS 0").ok());
  EXPECT_FALSE(ParseSelect("SELECT FOO(x) FROM t").ok());
  EXPECT_FALSE(ParseSelect("").ok());
}

TEST(ParserTest, RecommendDefaults) {
  auto result = Parse("RECOMMEND VIEWS FROM players WHERE team = 'GSW'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->kind, Statement::Kind::kRecommend);
  const RecommendStatement& rec = result->recommend;
  EXPECT_EQ(rec.top_k, 5);
  EXPECT_EQ(rec.scheme, "MUVE");
  EXPECT_DOUBLE_EQ(rec.alpha_d, 0.2);
  EXPECT_DOUBLE_EQ(rec.alpha_s, 0.6);
  ASSERT_NE(rec.where, nullptr);
}

TEST(ParserTest, RecommendKeepsWhereSourceText) {
  auto result = Parse(
      "RECOMMEND TOP 3 VIEWS FROM t WHERE  team = 'GSW' AND (mp >= 10 OR "
      "age < 30)  USING MUVE;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->recommend.where_sql,
            "team = 'GSW' AND (mp >= 10 OR age < 30)");
  auto at_end = Parse("RECOMMEND VIEWS FROM t WHERE name = 'it''s' ;");
  ASSERT_TRUE(at_end.ok()) << at_end.status().ToString();
  EXPECT_EQ(at_end->recommend.where_sql, "name = 'it''s'");
  // The captured text parses back to the same tree.
  auto reparsed = ParseWhere(at_end->recommend.where_sql);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(storage::CanonicalPredicateKey(**reparsed),
            storage::CanonicalPredicateKey(*at_end->recommend.where));
}

TEST(ParserTest, ParseWhereAcceptsBarePredicates) {
  for (const char* text :
       {"a = 1", "team = 'GSW' AND mp >= 10", "x BETWEEN 1 AND 2;",
        "NOT (a IN (1, 2)) OR b IS NULL"}) {
    auto where = ParseWhere(text);
    ASSERT_TRUE(where.ok()) << text << " -> " << where.status().ToString();
    EXPECT_NE(*where, nullptr);
  }
}

TEST(ParserTest, ParseWhereRejectsTrailingClauses) {
  for (const char* text :
       {"a >= 2 ORDER BY a", "a >= 2 ORDER BY a LIMIT 1", "a >= 2 LIMIT 1",
        "a >= 2 GROUP BY a", "a >= 2 GROUP BY a NUMBER OF BINS 3",
        "a >= 2 GROUP BY a HAVING a > 1"}) {
    auto where = ParseWhere(text);
    ASSERT_FALSE(where.ok()) << text;
    EXPECT_EQ(where.status().code(), common::StatusCode::kInvalidArgument)
        << text << " -> " << where.status().ToString();
    EXPECT_NE(where.status().message().find("trailing"), std::string::npos)
        << where.status().ToString();
  }
}

TEST(ParserTest, ParseWhereKeepsParseErrors) {
  for (const char* text : {"", "a >>= 2", "a = 1 garbage", "a = 1 HAVING b"}) {
    auto where = ParseWhere(text);
    EXPECT_EQ(where.status().code(), common::StatusCode::kParseError)
        << "'" << text << "' -> " << where.status().ToString();
  }
}

TEST(ParserTest, RecommendFullForm) {
  auto result = Parse(
      "RECOMMEND TOP 3 VIEWS FROM diab WHERE Outcome = 1 "
      "USING MUVE_LINEAR WEIGHTS (0.6, 0.2, 0.2) DISTANCE EMD;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RecommendStatement& rec = result->recommend;
  EXPECT_EQ(rec.top_k, 3);
  EXPECT_EQ(rec.scheme, "MUVE_LINEAR");
  EXPECT_DOUBLE_EQ(rec.alpha_d, 0.6);
  EXPECT_DOUBLE_EQ(rec.alpha_a, 0.2);
  EXPECT_DOUBLE_EQ(rec.alpha_s, 0.2);
  EXPECT_EQ(rec.distance, "EMD");
}

TEST(ParserTest, RecommendRejectsBadK) {
  EXPECT_FALSE(Parse("RECOMMEND TOP 0 VIEWS FROM t").ok());
}

TEST(ParserTest, ParseSelectRejectsRecommend) {
  EXPECT_FALSE(ParseSelect("RECOMMEND VIEWS FROM t").ok());
}

TEST(ParserTest, SelectToStringRoundTripParses) {
  const std::string sql =
      "SELECT MP, AVG(PER) FROM players WHERE team = 'GSW' "
      "GROUP BY MP NUMBER OF BINS 4";
  auto stmt = MustParseSelect(sql);
  // ToString output reparses to an equivalent statement (string literals
  // render unquoted, so compare structure via a second ToString).
  const std::string rendered = stmt.ToString();
  EXPECT_NE(rendered.find("NUMBER OF BINS 4"), std::string::npos);
  EXPECT_NE(rendered.find("AVG(PER)"), std::string::npos);
}

}  // namespace
}  // namespace muve::sql
