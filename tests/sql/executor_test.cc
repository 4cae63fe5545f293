#include "sql/executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sql/parser.h"
#include "storage/catalog.h"
#include "storage/csv.h"

namespace muve::sql {
namespace {

using storage::Table;
using storage::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    auto table = storage::ReadCsvString(
        "day,region,revenue\n"
        "1,north,10\n"
        "2,north,20\n"
        "3,north,30\n"
        "4,south,40\n"
        "5,south,50\n"
        "6,south,60\n"
        "7,south,70\n"
        "8,north,80\n");
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE(catalog_.Create("sales", std::move(table).value()).ok());
  }

  Table Run(const std::string& sql) {
    auto result = ExecuteSql(sql, catalog_);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    if (result.ok()) return std::move(result).value();
    return Table(storage::Schema());
  }

  storage::Catalog catalog_;
};

TEST_F(ExecutorTest, ProjectionAndFilter) {
  Table t = Run("SELECT day FROM sales WHERE region = 'south'");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.At(0, 0), Value(int64_t{4}));
  EXPECT_EQ(t.At(3, 0), Value(int64_t{7}));
}

TEST_F(ExecutorTest, StarExpandsAllColumns) {
  Table t = Run("SELECT * FROM sales");
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 8u);
}

TEST_F(ExecutorTest, ProjectionAlias) {
  Table t = Run("SELECT day AS d FROM sales LIMIT 1");
  EXPECT_EQ(t.schema().field(0).name, "d");
}

TEST_F(ExecutorTest, ScalarAggregates) {
  Table t = Run("SELECT SUM(revenue), COUNT(*), MIN(day), MAX(day), "
                "AVG(revenue) FROM sales");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0), Value(360.0));
  EXPECT_EQ(t.At(0, 1), Value(int64_t{8}));
  EXPECT_EQ(t.At(0, 2), Value(1.0));
  EXPECT_EQ(t.At(0, 3), Value(8.0));
  EXPECT_EQ(t.At(0, 4), Value(45.0));
}

TEST_F(ExecutorTest, ScalarAggregateWithFilter) {
  Table t = Run("SELECT SUM(revenue) FROM sales WHERE region = 'north'");
  EXPECT_EQ(t.At(0, 0), Value(140.0));
}

TEST_F(ExecutorTest, GroupByString) {
  Table t = Run(
      "SELECT region, SUM(revenue) FROM sales GROUP BY region");
  ASSERT_EQ(t.num_rows(), 2u);
  // Keys sorted ascending: north, south.
  EXPECT_EQ(t.At(0, 0), Value("north"));
  EXPECT_EQ(t.At(0, 1), Value(140.0));
  EXPECT_EQ(t.At(1, 0), Value("south"));
  EXPECT_EQ(t.At(1, 1), Value(220.0));
}

TEST_F(ExecutorTest, GroupByMultipleAggregates) {
  Table t = Run(
      "SELECT region, COUNT(*), AVG(revenue) FROM sales GROUP BY region");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 1), Value(int64_t{4}));
  EXPECT_EQ(t.At(1, 2), Value(55.0));
}

TEST_F(ExecutorTest, GroupByWithoutKeyColumn) {
  Table t = Run("SELECT SUM(revenue) FROM sales GROUP BY region");
  EXPECT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, BinnedGroupBy) {
  Table t = Run(
      "SELECT day, SUM(revenue) FROM sales GROUP BY day NUMBER OF BINS 2");
  ASSERT_EQ(t.num_rows(), 2u);
  // Range [1, 8], width 3.5: days 1-4 -> bin 0 (100), 5-8 -> bin 1 (260).
  EXPECT_EQ(t.At(0, 0), Value(1.0));
  EXPECT_EQ(t.At(0, 1), Value(4.5));
  EXPECT_EQ(t.At(0, 2), Value(100.0));
  EXPECT_EQ(t.At(1, 2), Value(260.0));
}

TEST_F(ExecutorTest, BinnedGroupByUsesWholeTableRange) {
  // Filtered to 'south' (days 4-7) but binned over the full range [1, 8]:
  // bin 0 covers days 1-4 and must contain only day 4's revenue.
  Table t = Run(
      "SELECT day, SUM(revenue) FROM sales WHERE region = 'south' "
      "GROUP BY day NUMBER OF BINS 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0), Value(1.0));  // bin_lo still 1, not 4
  EXPECT_EQ(t.At(0, 2), Value(40.0));
  EXPECT_EQ(t.At(1, 2), Value(180.0));
}

TEST_F(ExecutorTest, BinnedEmptyBinsRenderZero) {
  Table t = Run(
      "SELECT day, SUM(revenue) FROM sales WHERE day <= 2 "
      "GROUP BY day NUMBER OF BINS 7");
  ASSERT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.At(6, 2), Value(0.0));
}

TEST_F(ExecutorTest, HavingFiltersAggregatedGroups) {
  Table t = Run(
      "SELECT region, SUM(revenue) AS total FROM sales GROUP BY region "
      "HAVING total > 150");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0), Value("south"));
}

TEST_F(ExecutorTest, HavingOnCountWithOrdering) {
  Table t = Run(
      "SELECT day, COUNT(*) AS n FROM sales GROUP BY day HAVING n >= 1 "
      "ORDER BY day DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0), Value(int64_t{8}));
}

TEST_F(ExecutorTest, HavingCanEliminateEverything) {
  Table t = Run(
      "SELECT region, SUM(revenue) AS total FROM sales GROUP BY region "
      "HAVING total > 10000");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorTest, HavingErrors) {
  // Without GROUP BY.
  EXPECT_FALSE(ExecuteSql("SELECT day FROM sales HAVING day > 1", catalog_)
                   .ok());
  // Unknown output column.
  EXPECT_FALSE(ExecuteSql(
                   "SELECT region, SUM(revenue) AS total FROM sales "
                   "GROUP BY region HAVING nope > 1",
                   catalog_)
                   .ok());
}

TEST_F(ExecutorTest, OrderByDescAndLimit) {
  Table t = Run(
      "SELECT day, revenue FROM sales ORDER BY revenue DESC LIMIT 3");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.At(0, 1), Value(int64_t{80}));
  EXPECT_EQ(t.At(1, 1), Value(int64_t{70}));
  EXPECT_EQ(t.At(2, 1), Value(int64_t{60}));
}

TEST_F(ExecutorTest, OrderByOutputColumnOfGroupBy) {
  Table t = Run(
      "SELECT region, SUM(revenue) AS total FROM sales GROUP BY region "
      "ORDER BY total DESC");
  EXPECT_EQ(t.At(0, 0), Value("south"));
}

TEST_F(ExecutorTest, LimitZero) {
  Table t = Run("SELECT * FROM sales LIMIT 0");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorTest, Errors) {
  EXPECT_FALSE(ExecuteSql("SELECT * FROM missing", catalog_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT nope FROM sales", catalog_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT day, SUM(revenue) FROM sales", catalog_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT revenue FROM sales GROUP BY region", catalog_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM sales GROUP BY region", catalog_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT region FROM sales GROUP BY region",
                          catalog_)
                   .ok());  // no aggregate
  EXPECT_FALSE(ExecuteSql(
                   "SELECT region, SUM(revenue) FROM sales GROUP BY region "
                   "NUMBER OF BINS 3",
                   catalog_)
                   .ok());  // cannot bin a string dimension
  EXPECT_FALSE(ExecuteSql("SELECT SUM(region) FROM sales", catalog_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM sales ORDER BY nope", catalog_).ok());
  EXPECT_FALSE(ExecuteSql("RECOMMEND VIEWS FROM sales WHERE day = 1",
                          catalog_)
                   .ok());  // wrong entry point
}

// SQL table names are case-insensitive on lookup and on create, and a
// duplicate CREATE TABLE is AlreadyExists without touching the table.
TEST_F(ExecutorTest, CatalogBasics) {
  EXPECT_EQ(Run("SELECT COUNT(*) FROM SALES").At(0, 0), Value(int64_t{8}));
  EXPECT_EQ(Run("SELECT COUNT(*) FROM Sales").At(0, 0), Value(int64_t{8}));
  auto missing = ExecuteSql("SELECT * FROM nope", catalog_);
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);

  auto duplicate = Parse("CREATE TABLE SALES (a INT)");
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(ExecuteStatement(*duplicate, catalog_).status().code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog_.List(), std::vector<std::string>{"sales"});
  EXPECT_EQ(Run("SELECT COUNT(*) FROM sales").At(0, 0), Value(int64_t{8}));
}

}  // namespace
}  // namespace muve::sql
