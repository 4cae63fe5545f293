// Sampling-based approximation: deterministic, cheaper, and bounded-loss
// on well-behaved data.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/fidelity.h"
#include "core/recommender.h"
#include "core/view_evaluator.h"
#include "data/diab.h"
#include "storage/predicate.h"
#include "test_util.h"

namespace muve::core {
namespace {

TEST(SamplingTest, FullFractionIsExactlyTheBaseline) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions exact;
  exact.horizontal = HorizontalStrategy::kLinear;
  exact.vertical = VerticalStrategy::kLinear;
  SearchOptions sampled = exact;
  sampled.sample_fraction = 1.0;
  auto a = recommender->Recommend(exact);
  auto b = recommender->Recommend(sampled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->views.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->views[i].utility, b->views[i].utility);
  }
  EXPECT_EQ(b->scheme, "Linear-Linear");  // no (Smp) marker at 1.0
}

TEST(SamplingTest, DeterministicForFixedSeed) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.horizontal = HorizontalStrategy::kLinear;
  options.vertical = VerticalStrategy::kLinear;
  options.sample_fraction = 0.5;
  options.sample_seed = 42;
  auto a = recommender->Recommend(options);
  auto b = recommender->Recommend(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->views.size(), b->views.size());
  for (size_t i = 0; i < a->views.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->views[i].utility, b->views[i].utility);
    EXPECT_EQ(a->views[i].view.Key(), b->views[i].view.Key());
  }
  EXPECT_EQ(a->scheme, "Linear-Linear(Smp)");
}

TEST(SamplingTest, ScansProportionallyFewerRows) {
  const data::Dataset diab =
      data::WithWorkloadSize(data::MakeDiabDataset(), 3, 3, 3);
  auto recommender = Recommender::Create(diab);
  ASSERT_TRUE(recommender.ok());
  SearchOptions exact;
  exact.horizontal = HorizontalStrategy::kLinear;
  exact.vertical = VerticalStrategy::kLinear;
  SearchOptions quarter = exact;
  quarter.sample_fraction = 0.25;
  auto full = recommender->Recommend(exact);
  auto sampled = recommender->Recommend(quarter);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sampled.ok());
  const double ratio = static_cast<double>(sampled->stats.rows_scanned) /
                       static_cast<double>(full->stats.rows_scanned);
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.35);
}

TEST(SamplingTest, HighFractionKeepsHighFidelityOnDiab) {
  const data::Dataset diab =
      data::WithWorkloadSize(data::MakeDiabDataset(), 3, 3, 3);
  auto recommender = Recommender::Create(diab);
  ASSERT_TRUE(recommender.ok());
  SearchOptions exact;
  exact.horizontal = HorizontalStrategy::kLinear;
  exact.vertical = VerticalStrategy::kLinear;
  auto baseline = recommender->Recommend(exact);
  ASSERT_TRUE(baseline.ok());

  SearchOptions sampled = exact;
  sampled.sample_fraction = 0.8;
  auto rec = recommender->Recommend(sampled);
  ASSERT_TRUE(rec.ok());
  // Fidelity is computed against the *exact* utilities of the same view
  // choices, so re-score the sampled picks exactly via a fresh session.
  EXPECT_GE(Fidelity(baseline->views, rec->views), 0.85);
}

TEST(SamplingTest, ComposesWithMuve) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;  // MuVE-MuVE default
  options.sample_fraction = 0.5;
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->scheme, "MuVE-MuVE(Smp)");
  EXPECT_FALSE(rec->views.empty());
  // Sampled MuVE must equal sampled Linear (exactness holds on whatever
  // rows are scanned, since the sample is seed-deterministic).
  SearchOptions linear = options;
  linear.horizontal = HorizontalStrategy::kLinear;
  linear.vertical = VerticalStrategy::kLinear;
  auto lin = recommender->Recommend(linear);
  ASSERT_TRUE(lin.ok());
  ASSERT_EQ(lin->views.size(), rec->views.size());
  for (size_t i = 0; i < lin->views.size(); ++i) {
    EXPECT_NEAR(lin->views[i].utility, rec->views[i].utility, 1e-9);
  }
}

// The sampling invariant behind every sampled probe: the row sample is a
// per-row-id Bernoulli decision shared by the target and comparison row
// sets, so sample(D_Q) = D_Q ∩ sample(D_B).  Independent draws (the old
// behavior) would leave sampled target rows outside the sampled
// comparison set, biasing every deviation comparison.
TEST(SamplingTest, SampledTargetRowsAreSubsetOfSampledComparisonRows) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  for (const double fraction : {0.2, 0.5, 0.8}) {
    for (const uint64_t seed : {1ull, 7ull, 42ull, 12345ull}) {
      ViewEvaluatorOptions options;
      options.sample_fraction = fraction;
      options.sample_seed = seed;
      ViewEvaluator eval(ds, *space, options);
      const storage::RowSet& target = eval.target_rows();
      const storage::RowSet& all = eval.all_rows();
      // Subset: every sampled target row survives in the comparison set.
      for (const auto row : target) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), row))
            << "fraction " << fraction << " seed " << seed << " row "
            << row;
      }
      // Exactly the intersection: a target row of the dataset is sampled
      // iff its row id is kept in the comparison sample.
      for (const auto row : ds.target_rows) {
        const bool in_target =
            std::binary_search(target.begin(), target.end(), row);
        const bool in_all = std::binary_search(all.begin(), all.end(), row);
        EXPECT_EQ(in_target, in_all)
            << "fraction " << fraction << " seed " << seed << " row "
            << row;
      }
    }
  }
}

// Crafted categorical fixture: uniform category frequencies and constant
// per-category measures, large enough that a 50% sample preserves the
// normalized per-category SUM distribution closely.  The sampled
// deviation must track the unsampled one — the regression this guards is
// the misaligned group merge, which under sampling silently compared
// category A's target against category B's comparison.
TEST(SamplingTest, CategoricalDeviationSurvivesSampling) {
  auto table = std::make_shared<storage::Table>(storage::Schema({
      {"cat", storage::ValueType::kString,
       storage::FieldRole::kCategoricalDimension},
      {"grp", storage::ValueType::kString, storage::FieldRole::kNone},
      {"m", storage::ValueType::kDouble, storage::FieldRole::kMeasure},
  }));
  const char* cats[] = {"a", "b", "c", "d"};
  // 400 rows, categories uniform; target rows ('t') skew the measure of
  // category "a" upward so the deviation is comfortably nonzero.
  for (int i = 0; i < 400; ++i) {
    const char* cat = cats[i % 4];
    const bool target = i % 2 == 0;
    const double m = (target && i % 4 == 0) ? 8.0 : 2.0;
    ASSERT_TRUE(table
                    ->AppendRow({storage::Value(cat),
                                 storage::Value(target ? "t" : "u"),
                                 storage::Value(m)})
                    .ok());
  }
  data::Dataset ds;
  ds.name = "catfix";
  ds.table = table;
  ds.categorical_dimensions = {"cat"};
  ds.measures = {"m"};
  ds.functions = {storage::AggregateFunction::kSum};
  ds.query_predicate_sql = "grp = 't'";
  auto pred = storage::MakeComparison("grp", storage::CompareOp::kEq,
                                      storage::Value("t"));
  auto rows = storage::Filter(*table, pred.get());
  ASSERT_TRUE(rows.ok());
  ds.target_rows = std::move(rows).value();
  ds.all_rows = storage::AllRows(table->num_rows());

  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  const View& view =
      testutil::ViewOf(*space, "cat", "m", storage::AggregateFunction::kSum);

  ViewEvaluator exact(ds, *space);
  const double exact_dev = exact.EvaluateDeviation(view, 1);
  EXPECT_GT(exact_dev, 0.01);  // the fixture plants a real deviation

  ViewEvaluatorOptions half;
  half.sample_fraction = 0.5;
  for (const uint64_t seed : {3ull, 11ull, 2026ull}) {
    half.sample_seed = seed;
    ViewEvaluator sampled(ds, *space, half);
    const double sampled_dev = sampled.EvaluateDeviation(view, 1);
    EXPECT_NEAR(sampled_dev, exact_dev, 0.1) << "seed " << seed;
  }
}

TEST(SamplingTest, InvalidFractionRejected) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions zero;
  zero.sample_fraction = 0.0;
  EXPECT_FALSE(recommender->Recommend(zero).ok());
  SearchOptions over;
  over.sample_fraction = 1.5;
  EXPECT_FALSE(recommender->Recommend(over).ok());
}

}  // namespace
}  // namespace muve::core
