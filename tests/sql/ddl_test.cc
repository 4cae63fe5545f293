// DDL / DML statements: CREATE TABLE (with recommendation roles),
// INSERT INTO ... VALUES, and LOAD CSV, run on a storage::Catalog where
// each INSERT / LOAD CSV is one all-or-nothing MVCC append.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "core/recommend_sql.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace muve::sql {
namespace {

using storage::Catalog;

common::Result<StatementResult> RunSql(const std::string& sql,
                                    Catalog& catalog) {
  auto parsed = Parse(sql);
  if (!parsed.ok()) return parsed.status();
  return ExecuteStatement(*parsed, catalog);
}

StatementResult MustRun(const std::string& sql, Catalog& catalog) {
  auto result = RunSql(sql, catalog);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  return result.ok() ? std::move(result).value() : StatementResult{};
}

// The current snapshot of the table SQL calls `name`.
storage::Catalog::Snapshot SnapshotOf(const Catalog& catalog,
                                      const std::string& name) {
  auto snap = GetTable(catalog, name);
  EXPECT_TRUE(snap.ok()) << name << " -> " << snap.status().ToString();
  return snap.ok() ? *snap : storage::Catalog::Snapshot{};
}

size_t RowsOf(const Catalog& catalog, const std::string& name) {
  const auto snap = SnapshotOf(catalog, name);
  return snap.table == nullptr ? 0 : snap.table->num_rows();
}

TEST(CreateTableTest, RegistersSchemaWithRoles) {
  Catalog catalog;
  MustRun(
      "CREATE TABLE sales (day INT DIMENSION, region TEXT CATEGORICAL, "
      "revenue DOUBLE MEASURE, note TEXT)",
      catalog);
  const auto table = SnapshotOf(catalog, "sales").table;
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->num_rows(), 0u);
  const storage::Schema& schema = table->schema();
  EXPECT_EQ(schema.field(0).type, storage::ValueType::kInt64);
  EXPECT_EQ(schema.field(0).role, storage::FieldRole::kDimension);
  EXPECT_EQ(schema.field(1).role,
            storage::FieldRole::kCategoricalDimension);
  EXPECT_EQ(schema.field(2).type, storage::ValueType::kDouble);
  EXPECT_EQ(schema.field(2).role, storage::FieldRole::kMeasure);
  EXPECT_EQ(schema.field(3).role, storage::FieldRole::kNone);
}

TEST(CreateTableTest, TypeAliases) {
  Catalog catalog;
  MustRun(
      "CREATE TABLE t (a INTEGER, b BIGINT, c FLOAT, d REAL, e STRING, "
      "f VARCHAR)",
      catalog);
  const auto table = SnapshotOf(catalog, "t").table;
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->schema().field(1).type, storage::ValueType::kInt64);
  EXPECT_EQ(table->schema().field(3).type, storage::ValueType::kDouble);
  EXPECT_EQ(table->schema().field(5).type, storage::ValueType::kString);
}

TEST(CreateTableTest, Errors) {
  Catalog catalog;
  EXPECT_FALSE(RunSql("CREATE TABLE t (a BLOB)", catalog).ok());
  EXPECT_FALSE(RunSql("CREATE TABLE t (a INT UNKNOWNROLE)", catalog).ok());
  EXPECT_FALSE(RunSql("CREATE TABLE t ()", catalog).ok());
  EXPECT_FALSE(RunSql("CREATE TABLE t (a INT, a INT)", catalog).ok());
  MustRun("CREATE TABLE t (a INT)", catalog);
  MustRun("INSERT INTO t VALUES (1)", catalog);
  // A duplicate name — in any case — is AlreadyExists and leaves the
  // existing table alone.
  EXPECT_EQ(RunSql("CREATE TABLE t (b INT)", catalog).status().code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(RunSql("CREATE TABLE T (b INT)", catalog).status().code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(SnapshotOf(catalog, "t").table->schema().field(0).name, "a");
  EXPECT_EQ(RowsOf(catalog, "t"), 1u);
}

TEST(CreateTableTest, NamesAreCaseInsensitive) {
  Catalog catalog;
  MustRun("CREATE TABLE Sales (a INT)", catalog);
  EXPECT_TRUE(catalog.Contains("sales"));
  MustRun("INSERT INTO SALES VALUES (1), (2)", catalog);
  auto result = MustRun("SELECT COUNT(*) FROM sAlEs", catalog);
  ASSERT_TRUE(result.table.has_value());
  EXPECT_EQ(result.table->At(0, 0), storage::Value(int64_t{2}));
}

TEST(InsertTest, AppendsRows) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT, b DOUBLE, c TEXT)", catalog);
  MustRun("INSERT INTO t VALUES (1, 2.5, 'x'), (-3, -0.5, 'y'), "
          "(4, 7, NULL)",
          catalog);
  const auto table = SnapshotOf(catalog, "t").table;
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->At(1, 0), storage::Value(int64_t{-3}));
  EXPECT_EQ(table->At(1, 1), storage::Value(-0.5));
  EXPECT_EQ(table->At(2, 1), storage::Value(7.0));  // int coerces
  EXPECT_TRUE(table->At(2, 2).is_null());
}

// Each INSERT publishes one new version: a snapshot taken before it keeps
// its rows, and the data epoch moves by one per statement.
TEST(InsertTest, PublishesOneSnapshotPerStatement) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT)", catalog);
  const auto before = SnapshotOf(catalog, "t");
  MustRun("INSERT INTO t VALUES (1), (2), (3)", catalog);
  const auto after = SnapshotOf(catalog, "t");
  EXPECT_EQ(before.table->num_rows(), 0u);
  EXPECT_EQ(after.table->num_rows(), 3u);
  EXPECT_EQ(after.data_epoch, before.data_epoch + 1);
  EXPECT_EQ(after.base_epoch, before.base_epoch);
}

TEST(InsertTest, AtomicOnBadRow) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT)", catalog);
  MustRun("INSERT INTO t VALUES (7)", catalog);
  const auto good = SnapshotOf(catalog, "t");
  // Second row has wrong arity: nothing lands.
  EXPECT_FALSE(RunSql("INSERT INTO t VALUES (1), (2, 3)", catalog).ok());
  EXPECT_EQ(RowsOf(catalog, "t"), 1u);
  // Type error in second row: nothing lands either, and nothing
  // publishes — the table is the same version as before.
  auto bad = RunSql("INSERT INTO t VALUES (1), ('oops')", catalog);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("row 2"), std::string::npos)
      << bad.status().ToString();
  const auto after = SnapshotOf(catalog, "t");
  EXPECT_EQ(after.table, good.table);
  EXPECT_EQ(after.data_epoch, good.data_epoch);
  EXPECT_EQ(after.table->At(0, 0), storage::Value(int64_t{7}));
}

TEST(InsertTest, UnknownTableFails) {
  Catalog catalog;
  EXPECT_FALSE(RunSql("INSERT INTO missing VALUES (1)", catalog).ok());
}

TEST(LoadCsvTest, AppendsCsvRows) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT, b TEXT)", catalog);
  const std::string path = ::testing::TempDir() + "/muve_ddl_load.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,x\n2,y\n";
  }
  const StatementResult result =
      MustRun("LOAD CSV '" + path + "' INTO t", catalog);
  EXPECT_NE(result.message.find("2 rows"), std::string::npos);
  EXPECT_EQ(RowsOf(catalog, "t"), 2u);
  // Loading again appends.
  MustRun("LOAD CSV '" + path + "' INTO T", catalog);
  EXPECT_EQ(RowsOf(catalog, "t"), 4u);
}

TEST(LoadCsvTest, HeaderMismatchFails) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT, b TEXT)", catalog);
  const std::string path = ::testing::TempDir() + "/muve_ddl_bad.csv";
  {
    std::ofstream out(path);
    out << "x,y\n1,2\n";
  }
  EXPECT_FALSE(RunSql("LOAD CSV '" + path + "' INTO t", catalog).ok());
  EXPECT_FALSE(RunSql("LOAD CSV '/no/such/file.csv' INTO t", catalog).ok());
  EXPECT_EQ(RowsOf(catalog, "t"), 0u);
}

// LOAD CSV parses under the table's schema: a cell that does not fit its
// column's type fails the whole file, and nothing publishes.
TEST(LoadCsvTest, CellTypesFollowTheTableSchema) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT, b TEXT)", catalog);
  MustRun("INSERT INTO t VALUES (1, 'x')", catalog);
  const auto before = SnapshotOf(catalog, "t");
  const std::string path = ::testing::TempDir() + "/muve_ddl_types.csv";
  {
    std::ofstream out(path);
    out << "a,b\n2,y\nnot_an_int,z\n";
  }
  EXPECT_FALSE(RunSql("LOAD CSV '" + path + "' INTO t", catalog).ok());
  const auto after = SnapshotOf(catalog, "t");
  EXPECT_EQ(after.table, before.table);
  EXPECT_EQ(after.data_epoch, before.data_epoch);
}

TEST(DdlEndToEndTest, CreateInsertRecommend) {
  Catalog catalog;
  MustRun(
      "CREATE TABLE sales (day INT DIMENSION, region TEXT, "
      "revenue DOUBLE MEASURE)",
      catalog);
  std::string insert = "INSERT INTO sales VALUES ";
  for (int i = 0; i < 30; ++i) {
    if (i > 0) insert += ", ";
    const bool south = i % 2 == 0;
    insert += "(" + std::to_string(i % 15) + ", '" +
              (south ? "south" : "north") + "', " +
              std::to_string(south ? 10 + i : 20) + ")";
  }
  MustRun(insert, catalog);
  auto rec = core::RecommendSql(
      "RECOMMEND TOP 2 VIEWS FROM sales WHERE region = 'south' USING MUVE",
      catalog);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->views.size(), 2u);
}

TEST(DdlEndToEndTest, ExecuteStatementRejectsRecommend) {
  Catalog catalog;
  auto parsed = Parse("RECOMMEND VIEWS FROM t WHERE a = 1");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(ExecuteStatement(*parsed, catalog).ok());
}

TEST(NegativeLiteralTest, WorksInWhereToo) {
  Catalog catalog;
  MustRun("CREATE TABLE t (a INT)", catalog);
  MustRun("INSERT INTO t VALUES (-5), (0), (5)", catalog);
  auto result = MustRun("SELECT a FROM t WHERE a <= -5", catalog);
  ASSERT_TRUE(result.table.has_value());
  ASSERT_EQ(result.table->num_rows(), 1u);
  EXPECT_EQ(result.table->At(0, 0), storage::Value(int64_t{-5}));
}

}  // namespace
}  // namespace muve::sql
