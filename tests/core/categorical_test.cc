// Categorical-dimension support: the SeeDB setting the paper extends.
// Views over categorical dimensions have exactly one candidate (no
// binning), accuracy 1, and usability 1/(distinct groups).

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "core/view_evaluator.h"
#include "test_util.h"

namespace muve::core {
namespace {

data::Dataset MakeMixedDataset() {
  data::Dataset ds = testutil::MakeToyDataset();
  // Add a categorical dimension over the existing string column 'grp'
  // plus a fresh one cycling three labels.
  auto table = std::make_shared<storage::Table>(storage::Schema({
      {"x", storage::ValueType::kInt64, storage::FieldRole::kDimension},
      {"color", storage::ValueType::kString,
       storage::FieldRole::kCategoricalDimension},
      {"grp", storage::ValueType::kString, storage::FieldRole::kNone},
      {"m1", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
  }));
  const char* colors[] = {"red", "green", "blue"};
  for (int i = 0; i < 60; ++i) {
    const bool target = i % 3 == 0;
    // Target rows are heavily 'red'; the rest uniform.
    const char* color = target ? (i % 2 == 0 ? "red" : colors[i % 3])
                               : colors[i % 3];
    const common::Status st = table->AppendRow({
        storage::Value(static_cast<int64_t>(i % 20)),
        storage::Value(color),
        storage::Value(target ? "a" : "b"),
        storage::Value(1.0 + i * 0.1),
    });
    EXPECT_TRUE(st.ok());
  }
  ds.table = table;
  ds.dimensions = {"x"};
  ds.categorical_dimensions = {"color"};
  ds.measures = {"m1"};
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kCount};
  auto pred = storage::MakeComparison("grp", storage::CompareOp::kEq,
                                      storage::Value("a"));
  auto rows = storage::Filter(*table, pred.get());
  EXPECT_TRUE(rows.ok());
  ds.target_rows = std::move(rows).value();
  ds.all_rows = storage::AllRows(table->num_rows());
  return ds;
}

TEST(CategoricalViewSpaceTest, EnumeratesBothKinds) {
  const data::Dataset ds = MakeMixedDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  // 2 dimensions x 1 measure x 2 functions.
  EXPECT_EQ(space->views().size(), 4u);
  // Only the numeric dimension's pair has a base; color scans directly.
  ASSERT_EQ(space->base_pairs().size(), 1u);
  EXPECT_EQ(space->base_pairs()[0].dimension, "x");
  for (const View& view : space->views()) {
    EXPECT_EQ(view.base_pair >= 0, view.dimension == "x") << view.Label();
  }
  const DimensionInfo& color = space->dimension_info("color");
  EXPECT_TRUE(color.categorical);
  EXPECT_EQ(color.max_bins, 1);
  EXPECT_EQ(color.distinct_values, 3u);
  const DimensionInfo& x = space->dimension_info("x");
  EXPECT_FALSE(x.categorical);
  // Categorical dims contribute 2|M||F| binned views (B_j = 1).
  EXPECT_EQ(space->TotalBinnedViews(), 2 * 2 * (19 + 1));
}

TEST(CategoricalEvaluatorTest, AccuracyIsAlwaysPerfect) {
  const data::Dataset ds = MakeMixedDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  ViewEvaluator eval(ds, *space);
  const View& view = testutil::ViewOf(*space, "color", "m1",
                                      storage::AggregateFunction::kSum);
  EXPECT_DOUBLE_EQ(eval.EvaluateAccuracy(view, 1), 1.0);
  EXPECT_EQ(eval.stats().accuracy_evals, 1);
  EXPECT_EQ(eval.stats().target_queries, 0);  // no query needed
}

TEST(CategoricalEvaluatorTest, UsabilityIsInverseGroupCount) {
  const data::Dataset ds = MakeMixedDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  ViewEvaluator eval(ds, *space);
  const View& cat = testutil::ViewOf(*space, "color", "m1",
                                     storage::AggregateFunction::kSum);
  EXPECT_DOUBLE_EQ(eval.CandidateUsability(cat, 1), 1.0 / 3.0);
  const View& num = testutil::ViewOf(*space, "x", "m1",
                                     storage::AggregateFunction::kSum);
  EXPECT_DOUBLE_EQ(eval.CandidateUsability(num, 4), 0.25);
}

TEST(CategoricalEvaluatorTest, DeviationDetectsSkewedTargetGroups) {
  const data::Dataset ds = MakeMixedDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  ViewEvaluator eval(ds, *space);
  // Target rows are heavily red: the COUNT view over color deviates.
  const View& view = testutil::ViewOf(*space, "color", "m1",
                                      storage::AggregateFunction::kCount);
  const double d = eval.EvaluateDeviation(view, 1);
  EXPECT_GT(d, 0.05);
  EXPECT_LE(d, 1.0);
  // Deterministic.
  EXPECT_DOUBLE_EQ(eval.EvaluateDeviation(view, 1), d);
  EXPECT_EQ(eval.stats().comparison_queries, 2);
}

TEST(CategoricalRecommenderTest, MixedSpaceStaysExactAcrossSchemes) {
  auto recommender = Recommender::Create(MakeMixedDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions linear;
  linear.horizontal = HorizontalStrategy::kLinear;
  linear.vertical = VerticalStrategy::kLinear;
  linear.k = 4;
  SearchOptions muve;
  muve.horizontal = HorizontalStrategy::kMuve;
  muve.vertical = VerticalStrategy::kMuve;
  muve.k = 4;

  auto r_linear = recommender->Recommend(linear);
  auto r_muve = recommender->Recommend(muve);
  ASSERT_TRUE(r_linear.ok());
  ASSERT_TRUE(r_muve.ok());
  ASSERT_EQ(r_linear->views.size(), r_muve->views.size());
  for (size_t i = 0; i < r_linear->views.size(); ++i) {
    EXPECT_NEAR(r_linear->views[i].utility, r_muve->views[i].utility, 1e-9);
  }
}

TEST(CategoricalRecommenderTest, CategoricalViewCanWin) {
  // With deviation-dominant weights, the skewed color view should rank.
  auto recommender = Recommender::Create(MakeMixedDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.weights = Weights{0.8, 0.1, 0.1};
  options.k = 4;
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok());
  bool found_categorical = false;
  for (const ScoredView& v : rec->views) {
    if (v.view.dimension == "color") {
      found_categorical = true;
      EXPECT_DOUBLE_EQ(v.accuracy, 1.0);
      EXPECT_NEAR(v.usability, 1.0 / 3.0, 1e-12);
      EXPECT_EQ(v.bins, 1);
    }
  }
  EXPECT_TRUE(found_categorical);
}

TEST(CategoricalRecommenderTest, WorksWithOnlyCategoricalDims) {
  data::Dataset ds = MakeMixedDataset();
  ds.dimensions.clear();  // SeeDB mode: categorical only
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();
  SearchOptions options;
  options.k = 2;
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->views.size(), 2u);
  // Exactly one candidate per view: all fully probed or pruned, but no
  // horizontal expansion happened.
  EXPECT_LE(rec->stats.candidates_considered, 2);
}

TEST(CategoricalViewSpaceTest, EmptyCategoricalColumnRejected) {
  data::Dataset ds = MakeMixedDataset();
  auto table = std::make_shared<storage::Table>(storage::Schema({
      {"x", storage::ValueType::kInt64, storage::FieldRole::kDimension},
      {"c", storage::ValueType::kString,
       storage::FieldRole::kCategoricalDimension},
      {"m1", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
  }));
  ASSERT_TRUE(table
                  ->AppendRow({storage::Value(int64_t{1}),
                               storage::Value::Null(),
                               storage::Value(1.0)})
                  .ok());
  ds.table = table;
  ds.dimensions = {"x"};
  ds.categorical_dimensions = {"c"};
  ds.measures = {"m1"};
  ds.target_rows = {0};
  ds.all_rows = storage::AllRows(1);
  EXPECT_FALSE(ViewSpace::Create(ds).ok());
}

}  // namespace
}  // namespace muve::core
