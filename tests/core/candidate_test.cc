#include "core/candidate.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_util.h"

namespace muve::core {
namespace {

constexpr double kNoThreshold = -std::numeric_limits<double>::infinity();

class CandidateTest : public ::testing::Test {
 protected:
  CandidateTest() : dataset_(testutil::MakeToyDataset()) {
    auto space = ViewSpace::Create(dataset_);
    EXPECT_TRUE(space.ok());
    space_ = std::make_unique<ViewSpace>(std::move(space).value());
    view_ = testutil::ViewOf(*space_, "x", "m1",
                             storage::AggregateFunction::kSum);
  }

  data::Dataset dataset_;
  std::unique_ptr<ViewSpace> space_;
  View view_;
};

TEST_F(CandidateTest, FullEvaluationWithoutPruning) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const CandidateResult result = EvaluateCandidate(
      eval, view_, 5, options, kNoThreshold, /*allow_pruning=*/false);
  ASSERT_EQ(result.outcome, CandidateResult::Outcome::kFullyEvaluated);
  EXPECT_EQ(result.scored.bins, 5);
  EXPECT_DOUBLE_EQ(result.scored.usability, 0.2);
  EXPECT_NEAR(result.scored.utility,
              Utility(options.weights, result.scored.deviation,
                      result.scored.accuracy, 0.2),
              1e-12);
  EXPECT_EQ(eval.stats().fully_probed, 1);
  EXPECT_EQ(eval.stats().candidates_considered, 1);
}

TEST_F(CandidateTest, SBoundPrunesBeforeAnyProbe) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;  // aD=0.2 aA=0.2 aS=0.6
  // bound = 0.4 + 0.6/10 = 0.46 <= threshold 0.5 -> pruned with no probes.
  const CandidateResult result = EvaluateCandidate(
      eval, view_, 10, options, 0.5, /*allow_pruning=*/true);
  EXPECT_EQ(result.outcome, CandidateResult::Outcome::kPrunedBeforeProbes);
  EXPECT_EQ(eval.stats().target_queries, 0);
  EXPECT_EQ(eval.stats().comparison_queries, 0);
  EXPECT_EQ(eval.stats().pruned_before_probes, 1);
}

TEST_F(CandidateTest, PartialBoundPrunesSecondProbe) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  options.probe_order = ProbeOrderPolicy::kDeviationFirst;
  // Pick a threshold above what deviation+perfect-accuracy can reach but
  // below the S-bound so the first probe runs.
  const double s = Usability(10);
  ViewEvaluator probe_eval(dataset_, *space_);
  const double deviation = probe_eval.EvaluateDeviation(view_, 10);
  const double after_first =
      options.weights.deviation * deviation + options.weights.accuracy +
      options.weights.usability * s;
  const double before_any = UtilityUpperBound(options.weights, s);
  ASSERT_LT(after_first, before_any);
  const double threshold = (after_first + before_any) / 2.0;

  const CandidateResult result = EvaluateCandidate(
      eval, view_, 10, options, threshold, /*allow_pruning=*/true);
  EXPECT_EQ(result.outcome,
            CandidateResult::Outcome::kPrunedAfterFirstProbe);
  EXPECT_EQ(eval.stats().deviation_evals, 1);
  EXPECT_EQ(eval.stats().accuracy_evals, 0);
  EXPECT_EQ(eval.stats().pruned_after_first_probe, 1);
}

TEST_F(CandidateTest, AccuracyFirstOrderSkipsDeviation) {
  SearchOptions options;
  options.probe_order = ProbeOrderPolicy::kAccuracyFirst;
  // Derive a threshold strictly between the after-accuracy bound and the
  // S-bound so exactly the deviation probe gets pruned.
  const int bins = 2;
  const double s = Usability(bins);
  ViewEvaluator probe_eval(dataset_, *space_);
  const double accuracy = probe_eval.EvaluateAccuracy(view_, bins);
  ASSERT_LT(accuracy, 1.0);  // coarse binning of a skewed series
  const double after_first = options.weights.deviation +
                             options.weights.accuracy * accuracy +
                             options.weights.usability * s;
  const double before_any = UtilityUpperBound(options.weights, s);
  const double threshold = (after_first + before_any) / 2.0;

  ViewEvaluator eval(dataset_, *space_);
  const CandidateResult result = EvaluateCandidate(
      eval, view_, bins, options, threshold, /*allow_pruning=*/true);
  EXPECT_EQ(result.outcome,
            CandidateResult::Outcome::kPrunedAfterFirstProbe);
  EXPECT_EQ(eval.stats().accuracy_evals, 1);
  EXPECT_EQ(eval.stats().deviation_evals, 0);
  EXPECT_EQ(eval.stats().comparison_queries, 0);
}

TEST_F(CandidateTest, PruningDisabledEvaluatesEverything) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  options.enable_incremental_evaluation = false;
  const CandidateResult result = EvaluateCandidate(
      eval, view_, 10, options, 0.99, /*allow_pruning=*/true);
  EXPECT_EQ(result.outcome, CandidateResult::Outcome::kFullyEvaluated);
  EXPECT_EQ(eval.stats().fully_probed, 1);
}

TEST_F(CandidateTest, PrunedCandidateNeverBeatsThreshold) {
  // Soundness: whenever pruning fires, the candidate's true utility is
  // indeed <= threshold.
  SearchOptions options;
  for (int bins = 1; bins <= 29; ++bins) {
    for (double threshold : {0.2, 0.35, 0.5, 0.65, 0.8}) {
      ViewEvaluator pruning_eval(dataset_, *space_);
      const CandidateResult pruned = EvaluateCandidate(
          pruning_eval, view_, bins, options, threshold, true);
      if (pruned.outcome == CandidateResult::Outcome::kFullyEvaluated) {
        continue;
      }
      ViewEvaluator full_eval(dataset_, *space_);
      const CandidateResult full = EvaluateCandidate(
          full_eval, view_, bins, options, kNoThreshold, false);
      EXPECT_LE(full.scored.utility, threshold + 1e-12)
          << "bins=" << bins << " threshold=" << threshold;
    }
  }
}

TEST_F(CandidateTest, ScoredViewToString) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const CandidateResult result = EvaluateCandidate(
      eval, view_, 3, options, kNoThreshold, false);
  const std::string text = result.scored.ToString();
  EXPECT_NE(text.find("SUM(m1) BY x"), std::string::npos);
  EXPECT_NE(text.find("[b=3]"), std::string::npos);
}

}  // namespace
}  // namespace muve::core
