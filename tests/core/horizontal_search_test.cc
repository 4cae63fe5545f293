#include "core/horizontal_search.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/partitioner.h"
#include "test_util.h"

namespace muve::core {
namespace {

constexpr double kNoThreshold = -std::numeric_limits<double>::infinity();

class HorizontalSearchTest : public ::testing::Test {
 protected:
  HorizontalSearchTest() : dataset_(testutil::MakeToyDataset()) {
    auto space = ViewSpace::Create(dataset_);
    EXPECT_TRUE(space.ok());
    space_ = std::make_unique<ViewSpace>(std::move(space).value());
    view_ = testutil::ViewOf(*space_, "x", "m1",
                             storage::AggregateFunction::kSum);
    domain_ = BinDomain(PartitionSpec{}, space_->dimension_info("x").max_bins);
  }

  data::Dataset dataset_;
  std::unique_ptr<ViewSpace> space_;
  View view_;
  std::vector<int> domain_;
};

TEST_F(HorizontalSearchTest, LinearFindsTheArgmax) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const HorizontalResult result =
      HorizontalLinear(eval, view_, domain_, options);
  ASSERT_TRUE(result.best.has_value());
  // Cross-check against direct evaluation of every candidate.
  ViewEvaluator check(dataset_, *space_);
  double best_utility = -1.0;
  for (int bins : domain_) {
    const auto cand = EvaluateCandidate(check, view_, bins, options,
                                        kNoThreshold, false);
    best_utility = std::max(best_utility, cand.scored.utility);
  }
  EXPECT_DOUBLE_EQ(result.best->utility, best_utility);
  // Exhaustive: every domain entry fully probed.
  EXPECT_EQ(eval.stats().fully_probed,
            static_cast<int64_t>(domain_.size()));
}

// MuVE must return exactly the Linear optimum across weight settings
// (Section IV-C: MuVE is exact; only HC is approximate).
class MuveExactnessTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MuveExactnessTest, MuveMatchesLinearOptimum) {
  const auto [alpha_d, alpha_s] = GetParam();
  const double alpha_a = 1.0 - alpha_d - alpha_s;
  ASSERT_GE(alpha_a, -1e-9);

  const data::Dataset dataset = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(dataset);
  ASSERT_TRUE(space.ok());
  SearchOptions options;
  options.weights = Weights{alpha_d, std::max(alpha_a, 0.0), alpha_s};
  const View& view =
      testutil::ViewOf(*space, "x", "m2", storage::AggregateFunction::kAvg);
  const auto domain =
      BinDomain(PartitionSpec{}, space->dimension_info("x").max_bins);

  ViewEvaluator linear_eval(dataset, *space);
  const auto linear = HorizontalLinear(linear_eval, view, domain, options);
  ViewEvaluator muve_eval(dataset, *space);
  const auto muve =
      HorizontalMuve(muve_eval, view, domain, options, kNoThreshold);

  ASSERT_TRUE(linear.best.has_value());
  ASSERT_TRUE(muve.best.has_value());
  EXPECT_NEAR(muve.best->utility, linear.best->utility, 1e-12)
      << "weights " << options.weights.ToString();
  // MuVE never probes more than Linear.
  EXPECT_LE(muve_eval.stats().fully_probed, linear_eval.stats().fully_probed);
}

INSTANTIATE_TEST_SUITE_P(
    WeightSweep, MuveExactnessTest,
    ::testing::Values(std::make_tuple(0.2, 0.6), std::make_tuple(0.6, 0.2),
                      std::make_tuple(0.2, 0.2), std::make_tuple(0.0, 0.8),
                      std::make_tuple(0.8, 0.0), std::make_tuple(0.1, 0.9),
                      std::make_tuple(1.0, 0.0), std::make_tuple(0.0, 0.0),
                      std::make_tuple(0.34, 0.33)));

TEST_F(HorizontalSearchTest, MuveEarlyTerminationFiresAtHighUsabilityWeight) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  options.weights = Weights{0.05, 0.05, 0.9};
  const HorizontalResult result =
      HorizontalMuve(eval, view_, domain_, options, kNoThreshold);
  EXPECT_TRUE(result.early_terminated);
  // Far fewer candidates touched than the domain holds.
  EXPECT_LT(eval.stats().candidates_considered,
            static_cast<int64_t>(domain_.size()) / 2);
  ASSERT_TRUE(result.best.has_value());
  // ...and still exact.
  ViewEvaluator linear_eval(dataset_, *space_);
  const auto linear = HorizontalLinear(linear_eval, view_, domain_, options);
  EXPECT_DOUBLE_EQ(result.best->utility, linear.best->utility);
}

TEST_F(HorizontalSearchTest, MuveWithoutPruningStillExact) {
  SearchOptions options;
  options.enable_early_termination = false;
  options.enable_incremental_evaluation = false;
  ViewEvaluator eval(dataset_, *space_);
  const auto muve =
      HorizontalMuve(eval, view_, domain_, options, kNoThreshold);
  ViewEvaluator linear_eval(dataset_, *space_);
  const auto linear = HorizontalLinear(linear_eval, view_, domain_, options);
  ASSERT_TRUE(muve.best.has_value());
  EXPECT_DOUBLE_EQ(muve.best->utility, linear.best->utility);
  // With both optimizations off, MuVE degenerates to Linear's probe count.
  EXPECT_EQ(eval.stats().fully_probed, linear_eval.stats().fully_probed);
}

TEST_F(HorizontalSearchTest, MuveMaximalThresholdTerminatesImmediately) {
  // At b=1 the utility upper bound is exactly 1.0; an initial threshold of
  // 1.0 triggers early termination before any probe runs.
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const HorizontalResult result =
      HorizontalMuve(eval, view_, domain_, options, 1.0);
  EXPECT_FALSE(result.best.has_value());
  EXPECT_TRUE(result.early_terminated);
  EXPECT_EQ(eval.stats().target_queries, 0);
  EXPECT_EQ(eval.stats().candidates_considered, 0);
}

TEST_F(HorizontalSearchTest, MuveNearMaximalThresholdProbesOnlyFirstBin) {
  // Threshold just under 1.0: b=1 (bound exactly 1.0) is still probed,
  // everything after is pruned/terminated.
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const HorizontalResult result =
      HorizontalMuve(eval, view_, domain_, options, 0.999);
  EXPECT_TRUE(result.early_terminated);
  EXPECT_FALSE(result.best.has_value());  // b=1 cannot beat 0.999
  EXPECT_LE(eval.stats().candidates_considered, 1);
}

TEST_F(HorizontalSearchTest, HillClimbingReturnsValidCandidate) {
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  common::Rng rng(options.hc_seed);
  const HorizontalResult result = HorizontalHillClimbing(
      eval, view_, space_->dimension_info("x").max_bins, options, rng);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_GE(result.best->bins, 1);
  EXPECT_LE(result.best->bins, space_->dimension_info("x").max_bins);
  EXPECT_GT(result.best->utility, 0.0);
}

TEST_F(HorizontalSearchTest, HillClimbingNeverBeatsLinear) {
  SearchOptions options;
  for (uint64_t seed : {1ull, 2ull, 3ull, 17ull, 99ull}) {
    ViewEvaluator hc_eval(dataset_, *space_);
    common::Rng rng(seed);
    const auto hc = HorizontalHillClimbing(
        hc_eval, view_, space_->dimension_info("x").max_bins, options, rng);
    ViewEvaluator linear_eval(dataset_, *space_);
    const auto linear =
        HorizontalLinear(linear_eval, view_, domain_, options);
    ASSERT_TRUE(hc.best.has_value());
    EXPECT_LE(hc.best->utility, linear.best->utility + 1e-12);
  }
}

TEST_F(HorizontalSearchTest, HillClimbingDeterministicGivenSeed) {
  SearchOptions options;
  ViewEvaluator eval_a(dataset_, *space_);
  common::Rng rng_a(7);
  const auto a = HorizontalHillClimbing(eval_a, view_, 29, options, rng_a);
  ViewEvaluator eval_b(dataset_, *space_);
  common::Rng rng_b(7);
  const auto b = HorizontalHillClimbing(eval_b, view_, 29, options, rng_b);
  ASSERT_TRUE(a.best.has_value());
  ASSERT_TRUE(b.best.has_value());
  EXPECT_EQ(a.best->bins, b.best->bins);
  EXPECT_DOUBLE_EQ(a.best->utility, b.best->utility);
}

// Regression guard for HorizontalHillClimbing's memoization lifetime:
// `evaluate` used to return a reference into the memo (an unordered_map)
// and one climbing step held that reference across a *second* evaluate
// call, which inserts and can rehash.  unordered_map's node stability
// kept that accidentally correct, but any flat/open-addressing memo
// would turn it into a read from reallocated storage.  `evaluate` now
// returns by value; this test drives long downhill walks
// (usability-dominant weights push the climber toward b = 1 from a
// random high start) over a large bin range, so each step freshly
// evaluates b - s and b + s back to back and the memo crosses several
// rehash boundaries mid-step — if a future memo swap reintroduces
// reference-holding, the re-evaluation cross-check below (run under
// -DMUVE_SANITIZE=address in CI) catches it.
TEST_F(HorizontalSearchTest, MemoRehashDoesNotInvalidateCandidates) {
  SearchOptions options;
  options.weights = Weights{0.1, 0.1, 0.8};  // utility falls with bins
  const int max_bins = 300;
  for (uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull,
                        55ull, 89ull}) {
    ViewEvaluator eval(dataset_, *space_);
    common::Rng rng(seed);
    const HorizontalResult result =
        HorizontalHillClimbing(eval, view_, max_bins, options, rng);
    ASSERT_TRUE(result.best.has_value());
    ASSERT_GE(result.best->bins, 1);
    ASSERT_LE(result.best->bins, max_bins);
    // The returned candidate must be internally consistent: re-evaluating
    // the same (view, bins) pair from scratch yields the same utility.
    ViewEvaluator check(dataset_, *space_);
    const auto recomputed = EvaluateCandidate(
        check, view_, result.best->bins, options, kNoThreshold, false);
    EXPECT_DOUBLE_EQ(result.best->utility, recomputed.scored.utility)
        << "seed " << seed << " bins " << result.best->bins;
    EXPECT_DOUBLE_EQ(result.best->deviation, recomputed.scored.deviation)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(result.best->accuracy, recomputed.scored.accuracy)
        << "seed " << seed;
  }
}

TEST_F(HorizontalSearchTest, GeometricDomainRestrictsCandidates) {
  PartitionSpec geo;
  geo.kind = PartitionKind::kGeometric;
  const auto domain = BinDomain(geo, 29);  // {1,2,4,8,16}
  ViewEvaluator eval(dataset_, *space_);
  SearchOptions options;
  const auto result = HorizontalLinear(eval, view_, domain, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(eval.stats().fully_probed, 5);
  // The winner's bin count is a power of two.
  const int b = result.best->bins;
  EXPECT_EQ(b & (b - 1), 0);
}

TEST_F(HorizontalSearchTest, DispatcherRoutesEachStrategy) {
  SearchOptions options;
  common::Rng rng(1);
  for (const HorizontalStrategy strategy :
       {HorizontalStrategy::kLinear, HorizontalStrategy::kHillClimbing,
        HorizontalStrategy::kMuve}) {
    options.horizontal = strategy;
    ViewEvaluator eval(dataset_, *space_);
    const auto result =
        RunHorizontalSearch(eval, view_, domain_, 29, options, rng);
    EXPECT_TRUE(result.best.has_value());
  }
}

}  // namespace
}  // namespace muve::core
