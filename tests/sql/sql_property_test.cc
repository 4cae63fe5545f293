// Property and fuzz tests for the SQL front end:
//   * rendered statements re-parse to the same rendering (round-trip),
//   * randomly generated valid statements parse and execute cleanly,
//   * random byte noise never crashes the lexer/parser (errors only).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "storage/csv.h"

namespace muve::sql {
namespace {

class SqlPropertyTest : public ::testing::Test {
 protected:
  SqlPropertyTest() {
    std::string csv = "a,b,label,m\n";
    common::Rng rng(17);
    for (int i = 0; i < 50; ++i) {
      csv += std::to_string(i % 12) + "," +
             std::to_string(rng.UniformInt(0, 5)) + "," +
             (i % 2 == 0 ? "x" : "y") + "," +
             std::to_string(rng.Uniform(0.0, 9.0)) + "\n";
    }
    auto table = storage::ReadCsvString(csv);
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE(catalog_.Create("t", std::move(table).value()).ok());
  }

  storage::Catalog catalog_;
};

TEST_F(SqlPropertyTest, RenderedSelectsReParseToSameRendering) {
  const char* statements[] = {
      "SELECT * FROM t",
      "SELECT a, b FROM t WHERE a = 1",
      "SELECT a, SUM(m) FROM t GROUP BY a",
      "SELECT a, SUM(m) AS total FROM t WHERE b <> 2 GROUP BY a",
      "SELECT a, AVG(m) FROM t WHERE a BETWEEN 2 AND 8 GROUP BY a "
      "NUMBER OF BINS 3",
      "SELECT a FROM t WHERE (a = 1 OR b = 2) AND NOT label = 'x' "
      "ORDER BY a DESC LIMIT 5",
      "SELECT COUNT(*) FROM t WHERE m >= 1.5",
  };
  for (const char* sql : statements) {
    auto first = ParseSelect(sql);
    ASSERT_TRUE(first.ok()) << sql;
    const std::string rendered = first->ToString();
    // String literals render unquoted, so re-parse can differ for them;
    // skip render-level comparison when quotes were involved.
    if (std::string(sql).find('\'') != std::string::npos) continue;
    auto second = ParseSelect(rendered);
    ASSERT_TRUE(second.ok()) << "re-parse failed: " << rendered;
    EXPECT_EQ(second->ToString(), rendered);
  }
}

TEST_F(SqlPropertyTest, GeneratedValidStatementsExecute) {
  common::Rng rng(23);
  const char* columns[] = {"a", "b", "m"};
  const char* aggs[] = {"SUM", "AVG", "COUNT", "MIN", "MAX", "STD", "VAR"};
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 200; ++trial) {
    std::string sql = "SELECT ";
    const bool grouped = rng.Bernoulli(0.5);
    const std::string dim(columns[rng.UniformInt(0, 1)]);
    if (grouped) {
      sql += dim + ", " + aggs[rng.UniformInt(0, 6)] + "(m)";
    } else {
      sql += "*";
    }
    sql += " FROM t";
    if (rng.Bernoulli(0.6)) {
      sql += " WHERE ";
      sql += columns[rng.UniformInt(0, 2)];
      sql += " ";
      sql += ops[rng.UniformInt(0, 5)];
      sql += " ";
      sql += std::to_string(rng.UniformInt(0, 12));
      if (rng.Bernoulli(0.3)) {
        sql += rng.Bernoulli(0.5) ? " AND " : " OR ";
        sql += std::string(columns[rng.UniformInt(0, 2)]) + " >= " +
               std::to_string(rng.UniformInt(0, 6));
      }
    }
    if (grouped) {
      sql += " GROUP BY " + dim;
      if (rng.Bernoulli(0.5)) {
        sql += " NUMBER OF BINS " +
               std::to_string(rng.UniformInt(1, 10));
      }
    } else if (rng.Bernoulli(0.4)) {
      sql += " ORDER BY a";
      if (rng.Bernoulli(0.5)) sql += " DESC";
      sql += " LIMIT " + std::to_string(rng.UniformInt(0, 20));
    }
    auto result = ExecuteSql(sql, catalog_);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  }
}

TEST_F(SqlPropertyTest, RandomNoiseNeverCrashes) {
  common::Rng rng(29);
  const std::string alphabet =
      "SELECT FROM WHERE GROUP BY()*,;=<>'\" 0123456789abcdef\n\t";
  for (int trial = 0; trial < 500; ++trial) {
    std::string noise;
    const int len = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < len; ++i) {
      noise.push_back(
          alphabet[rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) -
                                          1)]);
    }
    // Either parses or returns a clean error; must not crash or hang.
    auto parsed = Parse(noise);
    if (parsed.ok() && parsed->kind == Statement::Kind::kSelect) {
      (void)Execute(parsed->select, catalog_);
    }
  }
  SUCCEED();
}

TEST_F(SqlPropertyTest, TruncatedValidStatementsFailCleanly) {
  const std::string full =
      "SELECT a, SUM(m) FROM t WHERE a BETWEEN 2 AND 8 GROUP BY a "
      "NUMBER OF BINS 3 ORDER BY a LIMIT 5";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    auto parsed = Parse(prefix);
    if (parsed.ok() && parsed->kind == Statement::Kind::kSelect) {
      (void)Execute(parsed->select, catalog_);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace muve::sql
