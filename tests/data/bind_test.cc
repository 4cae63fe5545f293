// data::Bind, the one binder every front end builds its Dataset through:
// its selection and setup accounting equal a direct storage::Filter over
// the same table, empty / malformed predicates are errors, and the
// bundled datasets keep their pinned D_Q sizes.

#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/scale.h"
#include "data/toy.h"
#include "gtest/gtest.h"
#include "sql/parser.h"
#include "storage/predicate.h"

namespace muve::data {
namespace {

Workload ScaleWorkload() {
  Workload workload;
  workload.dimensions = {"x", "y"};
  workload.measures = {"m1", "m2"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg};
  return workload;
}

class BindTest : public ::testing::Test {
 protected:
  BindTest() {
    spec_.rows = 5000;
    // 40 chunks of 128 rows: the clustered day predicate lets the zone
    // maps decide most of them wholesale.
    table_ = MakeScaleTable(spec_, 0, spec_.rows, /*chunk_rows=*/128);
  }

  ScaleSpec spec_;
  std::shared_ptr<const storage::Table> table_;
};

TEST_F(BindTest, SelectionAndAccountingMatchFilter) {
  for (const std::string& predicate :
       {ScalePredicateSql(spec_), std::string("day < 10 OR x >= 100"),
        std::string("region = 'north' AND day BETWEEN 20 AND 30")}) {
    SCOPED_TRACE(predicate);
    auto ds = Bind("scale", table_, ScaleWorkload(), predicate);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();

    auto where = sql::ParseWhere(predicate);
    ASSERT_TRUE(where.ok()) << where.status().ToString();
    storage::FilterStats stats;
    auto expected = storage::Filter(*table_, where->get(), nullptr, &stats);
    ASSERT_TRUE(expected.ok());

    EXPECT_EQ(ds->target_rows, *expected);
    EXPECT_EQ(ds->all_rows, storage::AllRows(table_->num_rows()));
    EXPECT_EQ(ds->predicate_rows_filtered, stats.rows_in - stats.rows_out);
    EXPECT_EQ(ds->chunks_skipped, stats.chunks_skipped);
    EXPECT_GE(ds->setup_time_ms, 0.0);
    // The dataset shares the caller's table and carries the workload.
    EXPECT_EQ(ds->table, table_);
    EXPECT_EQ(ds->name, "scale");
    EXPECT_EQ(ds->query_predicate_sql, predicate);
    EXPECT_EQ(ds->dimensions, ScaleWorkload().dimensions);
    EXPECT_EQ(ds->measures, ScaleWorkload().measures);
    EXPECT_EQ(ds->functions, ScaleWorkload().functions);
  }
}

TEST_F(BindTest, ClusteredPredicateSkipsChunks) {
  auto ds = Bind("scale", table_, ScaleWorkload(), ScalePredicateSql(spec_));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_GT(ds->chunks_skipped, 0);
  EXPECT_GT(ds->predicate_rows_filtered, 0);
}

TEST_F(BindTest, EmptySelectionIsInvalidArgument) {
  auto ds = Bind("scale", table_, ScaleWorkload(), "day < 0");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(ds.status().message(), "predicate selects no rows: day < 0");
}

TEST_F(BindTest, MalformedPredicatesAreErrors) {
  // Syntax errors keep the parser's own code and position.
  auto syntax = Bind("scale", table_, ScaleWorkload(), "day >>= 3");
  EXPECT_EQ(syntax.status().code(), common::StatusCode::kParseError);
  auto empty = Bind("scale", table_, ScaleWorkload(), "");
  EXPECT_EQ(empty.status().code(), common::StatusCode::kParseError);
  // A trailing clause is not part of a WHERE condition.
  auto trailing =
      Bind("scale", table_, ScaleWorkload(), "day >= 3 ORDER BY day LIMIT 1");
  EXPECT_EQ(trailing.status().code(), common::StatusCode::kInvalidArgument);
  // Columns resolve against the table.
  auto unknown = Bind("scale", table_, ScaleWorkload(), "nope = 1");
  EXPECT_EQ(unknown.status().code(), common::StatusCode::kNotFound);
}

TEST(BindWorkloadTest, WorkloadOfRoundTrips) {
  const Dataset toy = MakeToyDataset();
  const Workload workload = WorkloadOf(toy);
  EXPECT_EQ(workload.default_predicate, "grp = 'a'");
  auto again =
      Bind(toy.name, toy.table, workload, workload.default_predicate);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->target_rows, toy.target_rows);
  EXPECT_EQ(again->dimensions, toy.dimensions);
  EXPECT_EQ(again->measures, toy.measures);
  EXPECT_EQ(again->functions, toy.functions);
}

// The bundled loaders bind through Bind; these are the D_Q sizes and
// filtered counts they had when each built its selection by hand.
TEST(BindWorkloadTest, BundledDatasetsKeepTheirSelections) {
  struct Pin {
    Dataset ds;
    size_t rows;
    size_t target;
    int64_t filtered;
  };
  const Pin pins[] = {
      {MakeToyDataset(), 90, 30, 60},
      {MakeNbaDataset(), 651, 22, 629},
      {MakeDiabDataset(), 768, 325, 443},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.ds.name);
    EXPECT_EQ(pin.ds.table->num_rows(), pin.rows);
    EXPECT_EQ(pin.ds.all_rows.size(), pin.rows);
    EXPECT_EQ(pin.ds.target_rows.size(), pin.target);
    EXPECT_EQ(pin.ds.predicate_rows_filtered, pin.filtered);
    EXPECT_EQ(pin.ds.chunks_skipped, 0);
  }

  ScaleSpec spec;
  spec.rows = 10000;
  const Dataset scale = MakeScaleDataset(spec, /*chunk_rows=*/256);
  EXPECT_EQ(scale.query_predicate_sql, "day >= 48");
  EXPECT_EQ(scale.target_rows.size(), 2512u);
  EXPECT_EQ(scale.predicate_rows_filtered, 7488);
  EXPECT_EQ(scale.chunks_skipped, 29);
}

}  // namespace
}  // namespace muve::data
