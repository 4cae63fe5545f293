// Cross-module integration tests: the full pipeline from data generation
// through CSV round-trips, SQL, and recommendation.

#include <gtest/gtest.h>

#include "core/fidelity.h"
#include "core/recommend_sql.h"
#include "core/recommender.h"
#include "data/diab.h"
#include "data/nba.h"
#include "sql/executor.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/predicate.h"

namespace muve {
namespace {

// Recommendations computed from a dataset and from its CSV round-trip
// must be identical: CSV export/import is lossless for the workload.
TEST(PipelineTest, CsvRoundTripPreservesRecommendations) {
  const data::Dataset original = data::WithWorkloadSize(
      data::MakeDiabDataset(), 3, 3, 3);

  const std::string csv = storage::WriteCsvString(*original.table);
  storage::CsvOptions options;
  options.schema = original.table->schema();
  auto reread = storage::ReadCsvString(csv, options);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();

  data::Dataset roundtrip = original;
  roundtrip.table =
      std::make_shared<storage::Table>(std::move(reread).value());
  auto pred = storage::MakeComparison("Outcome", storage::CompareOp::kEq,
                                      storage::Value(int64_t{1}));
  auto rows = storage::Filter(*roundtrip.table, pred.get());
  ASSERT_TRUE(rows.ok());
  roundtrip.target_rows = std::move(rows).value();
  roundtrip.all_rows = storage::AllRows(roundtrip.table->num_rows());
  ASSERT_EQ(roundtrip.target_rows, original.target_rows);

  auto rec_a = core::Recommender::Create(original);
  auto rec_b = core::Recommender::Create(roundtrip);
  ASSERT_TRUE(rec_a.ok());
  ASSERT_TRUE(rec_b.ok());
  core::SearchOptions search;
  auto a = rec_a->Recommend(search);
  auto b = rec_b->Recommend(search);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->views.size(), b->views.size());
  for (size_t i = 0; i < a->views.size(); ++i) {
    EXPECT_EQ(a->views[i].view.Key(), b->views[i].view.Key());
    EXPECT_EQ(a->views[i].bins, b->views[i].bins);
    EXPECT_DOUBLE_EQ(a->views[i].utility, b->views[i].utility);
  }
}

// The SQL front end and the programmatic API agree on the binned view of
// the paper's V_{i,b} query shape.
TEST(PipelineTest, SqlBinnedViewMatchesEngineKernel) {
  const data::Dataset nba = data::MakeNbaDataset();
  storage::Catalog catalog;
  ASSERT_TRUE(catalog.Create("players", nba.table->Clone()).ok());

  auto via_sql = sql::ExecuteSql(
      "SELECT MP, SUM(3PAr) FROM players WHERE Team = 'GSW' "
      "GROUP BY MP NUMBER OF BINS 3",
      catalog);
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();
  ASSERT_EQ(via_sql->num_rows(), 3u);

  auto via_engine = storage::BinnedAggregate(
      *nba.table, nba.target_rows, "MP", "3PAr",
      storage::AggregateFunction::kSum, 3, 0.0, 1440.0);
  ASSERT_TRUE(via_engine.ok());
  for (size_t b = 0; b < 3; ++b) {
    auto cell = via_sql->At(b, 2).ToDouble();
    ASSERT_TRUE(cell.ok());
    EXPECT_NEAR(*cell, via_engine->aggregates[b], 1e-9) << "bin " << b;
  }
}

// Golden regression: the default-seed DIAB recommendation is stable.
// If a deliberate algorithm change shifts these values, refresh them and
// note the cause in the commit; an unexplained diff is a bug.
TEST(PipelineTest, GoldenDiabRecommendation) {
  auto recommender = core::Recommender::Create(
      data::WithWorkloadSize(data::MakeDiabDataset(), 3, 3, 3));
  ASSERT_TRUE(recommender.ok());
  core::SearchOptions options;  // paper defaults
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->views.size(), 5u);
  // All top views are single-bin under the default aS = 0.6 (see
  // DESIGN.md note on the usability term pinning optimal b).
  for (const core::ScoredView& v : rec->views) {
    EXPECT_LE(v.bins, 2);
    EXPECT_GT(v.utility, 0.6);
    EXPECT_LE(v.utility, 1.0);
  }
  // Deterministic across runs.
  auto again = recommender->Recommend(options);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < rec->views.size(); ++i) {
    EXPECT_EQ(rec->views[i].view.Key(), again->views[i].view.Key());
    EXPECT_DOUBLE_EQ(rec->views[i].utility, again->views[i].utility);
  }
}

// Golden regression: the NBA Example-1 run surfaces a 3PAr view on top.
TEST(PipelineTest, GoldenNbaExampleOneViewWins) {
  auto recommender = core::Recommender::Create(
      data::WithWorkloadSize(data::MakeNbaDataset(), 3, 3, 3));
  ASSERT_TRUE(recommender.ok());
  core::SearchOptions options;
  options.weights = core::Weights{0.6, 0.2, 0.2};
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok());
  ASSERT_FALSE(rec->views.empty());
  EXPECT_EQ(rec->views.front().view.measure, "3PAr");
  EXPECT_GE(rec->views.front().deviation, 0.3);
}

// RECOMMEND through SQL equals the programmatic recommender for the same
// workload definition.
TEST(PipelineTest, SqlRecommendMatchesProgrammaticApi) {
  const data::Dataset nba = data::MakeNbaDataset();
  storage::Catalog catalog;
  ASSERT_TRUE(catalog.Create("players", nba.table->Clone()).ok());
  auto via_sql = core::RecommendSql(
      "RECOMMEND TOP 4 VIEWS FROM players WHERE Team = 'GSW' USING MUVE "
      "WEIGHTS (0.6, 0.2, 0.2)",
      catalog);
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();

  // Programmatic equivalent: same roles-derived workload.
  data::Dataset ds = nba;
  ds.dimensions =
      nba.table->schema().FieldNamesWithRole(storage::FieldRole::kDimension);
  ds.categorical_dimensions = nba.table->schema().FieldNamesWithRole(
      storage::FieldRole::kCategoricalDimension);
  ds.measures =
      nba.table->schema().FieldNamesWithRole(storage::FieldRole::kMeasure);
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  core::SearchOptions options;
  options.k = 4;
  options.weights = core::Weights{0.6, 0.2, 0.2};
  auto direct = recommender->Recommend(options);
  ASSERT_TRUE(direct.ok());

  ASSERT_EQ(via_sql->views.size(), direct->views.size());
  for (size_t i = 0; i < direct->views.size(); ++i) {
    EXPECT_NEAR(via_sql->views[i].utility, direct->views[i].utility, 1e-9);
  }
}

}  // namespace
}  // namespace muve
