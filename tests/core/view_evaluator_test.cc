#include "core/view_evaluator.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace muve::core {
namespace {

class ViewEvaluatorTest : public ::testing::Test {
 protected:
  ViewEvaluatorTest() : dataset_(testutil::MakeToyDataset()) {
    auto space = ViewSpace::Create(dataset_);
    EXPECT_TRUE(space.ok());
    space_ = std::make_unique<ViewSpace>(std::move(space).value());
  }

  const View& SumM1ByX() const {
    return testutil::ViewOf(*space_, "x", "m1",
                            storage::AggregateFunction::kSum);
  }

  data::Dataset dataset_;
  std::unique_ptr<ViewSpace> space_;
};

TEST_F(ViewEvaluatorTest, DeviationDeterministicAndBounded) {
  ViewEvaluator eval(dataset_, *space_);
  const double d1 = eval.EvaluateDeviation(SumM1ByX(), 5);
  const double d2 = eval.EvaluateDeviation(SumM1ByX(), 5);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_GE(d1, 0.0);
  EXPECT_LE(d1, 1.0);
}

TEST_F(ViewEvaluatorTest, TargetDiffersFromComparisonSoDeviationPositive) {
  // m1 rises with x for the target subset but is flat overall.
  ViewEvaluator eval(dataset_, *space_);
  EXPECT_GT(eval.EvaluateDeviation(SumM1ByX(), 5), 0.01);
}

TEST_F(ViewEvaluatorTest, SingleBinDeviationIsZero) {
  ViewEvaluator eval(dataset_, *space_);
  EXPECT_DOUBLE_EQ(eval.EvaluateDeviation(SumM1ByX(), 1), 0.0);
}

TEST_F(ViewEvaluatorTest, AccuracyBoundedAndImprovesWithFullBinning) {
  ViewEvaluator eval(dataset_, *space_);
  const double coarse = eval.EvaluateAccuracy(SumM1ByX(), 2);
  EXPECT_GE(coarse, 0.0);
  EXPECT_LE(coarse, 1.0);
  // 29 bins over range [0,29]: splits 30 distinct values into bins of at
  // most 2 values; with max bins accuracy should be >= the 2-bin one.
  const double fine = eval.EvaluateAccuracy(SumM1ByX(), 29);
  EXPECT_GE(fine + 1e-12, coarse);
}

TEST_F(ViewEvaluatorTest, StatsCountOperations) {
  ViewEvaluator eval(dataset_, *space_);
  eval.EvaluateDeviation(SumM1ByX(), 4);
  EXPECT_EQ(eval.stats().target_queries, 1);
  EXPECT_EQ(eval.stats().comparison_queries, 1);
  EXPECT_EQ(eval.stats().deviation_evals, 1);
  EXPECT_EQ(eval.stats().accuracy_evals, 0);
  // The first probe builds one base histogram pass per side; the probes
  // themselves touch no rows.
  const int64_t build_rows = static_cast<int64_t>(
      dataset_.target_rows.size() + dataset_.all_rows.size());
  EXPECT_EQ(eval.stats().base_builds, 2);
  EXPECT_EQ(eval.stats().rows_scanned, build_rows);
  EXPECT_EQ(eval.stats().build_rows_scanned, build_rows);
  EXPECT_EQ(eval.stats().probe_rows_scanned, 0);
  // Accuracy at the same (view, bins) reuses the cached binned target.
  eval.EvaluateAccuracy(SumM1ByX(), 4);
  EXPECT_EQ(eval.stats().target_queries, 1);
  EXPECT_EQ(eval.stats().accuracy_evals, 1);
  EXPECT_EQ(eval.stats().rows_scanned, build_rows);
}

TEST_F(ViewEvaluatorTest, ReuseCacheInvalidatedByDifferentBins) {
  ViewEvaluator eval(dataset_, *space_);
  eval.EvaluateDeviation(SumM1ByX(), 4);
  eval.EvaluateAccuracy(SumM1ByX(), 5);  // different bins -> new query
  EXPECT_EQ(eval.stats().target_queries, 2);
}

TEST_F(ViewEvaluatorTest, RawSeriesCachedPerView) {
  ViewEvaluator eval(dataset_, *space_);
  eval.EvaluateAccuracy(SumM1ByX(), 2);
  const int64_t scans_after_first = eval.stats().rows_scanned;
  EXPECT_GT(scans_after_first, 0);
  eval.EvaluateAccuracy(SumM1ByX(), 3);
  // Second accuracy evaluation: the binned target coarsens the cached
  // base histogram and the raw series is cached — no rows touched.
  EXPECT_EQ(eval.stats().rows_scanned, scans_after_first);
  EXPECT_EQ(eval.stats().target_queries, 2);
}

TEST_F(ViewEvaluatorTest, DistanceKindChangesDeviationNotAccuracy) {
  ViewEvaluatorOptions emd;
  emd.distance = DistanceKind::kEarthMovers;
  ViewEvaluator euclid(dataset_, *space_);
  ViewEvaluator earth(dataset_, *space_, emd);
  const double d_euclid = euclid.EvaluateDeviation(SumM1ByX(), 6);
  const double d_emd = earth.EvaluateDeviation(SumM1ByX(), 6);
  EXPECT_NE(d_euclid, d_emd);
  EXPECT_DOUBLE_EQ(euclid.EvaluateAccuracy(SumM1ByX(), 6),
                   earth.EvaluateAccuracy(SumM1ByX(), 6));
}

TEST_F(ViewEvaluatorTest, PriorityRuleBootstrapsDeviationFirst) {
  ViewEvaluator eval(dataset_, *space_);
  EXPECT_FALSE(eval.AccuracyFirst(Weights::PaperDefault()));
}

TEST_F(ViewEvaluatorTest, PriorityRulePrefersCheapHighWeightObjective) {
  ViewEvaluator eval(dataset_, *space_);
  // Seed cost estimates: deviation path much more expensive.
  eval.EvaluateDeviation(SumM1ByX(), 4);
  eval.EvaluateAccuracy(SumM1ByX(), 4);
  // With overwhelming accuracy weight, accuracy goes first...
  EXPECT_TRUE(eval.AccuracyFirst(Weights{0.0, 0.9, 0.1}));
  // ...and with overwhelming deviation weight, deviation does.
  EXPECT_FALSE(eval.AccuracyFirst(Weights{0.9, 0.0, 0.1}));
}

TEST_F(ViewEvaluatorTest, ResetAccountingClearsStatsKeepsDeterminism) {
  ViewEvaluator eval(dataset_, *space_);
  const double d = eval.EvaluateDeviation(SumM1ByX(), 3);
  eval.ResetAccounting();
  EXPECT_EQ(eval.stats().target_queries, 0);
  EXPECT_DOUBLE_EQ(eval.stats().TotalCostMillis(), 0.0);
  EXPECT_DOUBLE_EQ(eval.EvaluateDeviation(SumM1ByX(), 3), d);
}

TEST_F(ViewEvaluatorTest, CostComponentsAccumulate) {
  ViewEvaluator eval(dataset_, *space_);
  for (int b = 1; b <= 10; ++b) eval.EvaluateDeviation(SumM1ByX(), b);
  EXPECT_GT(eval.stats().target_time_ms, 0.0);
  EXPECT_GT(eval.stats().comparison_time_ms, 0.0);
  EXPECT_GT(eval.stats().TotalCostMillis(), 0.0);
  EXPECT_GT(eval.cost_model().Estimate(CostKind::kTargetQuery), 0.0);
}

}  // namespace
}  // namespace muve::core
