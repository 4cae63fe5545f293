#include "core/search_options.h"

#include <gtest/gtest.h>

namespace muve::core {
namespace {

TEST(SearchOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(SearchOptions().Validate().ok());
}

TEST(SearchOptionsTest, SchemeNamesMatchPaperNotation) {
  SearchOptions options;
  options.horizontal = HorizontalStrategy::kLinear;
  options.vertical = VerticalStrategy::kLinear;
  EXPECT_EQ(options.SchemeName(), "Linear-Linear");

  options.horizontal = HorizontalStrategy::kHillClimbing;
  EXPECT_EQ(options.SchemeName(), "HC-Linear");

  options.horizontal = HorizontalStrategy::kMuve;
  EXPECT_EQ(options.SchemeName(), "MuVE-Linear");

  options.vertical = VerticalStrategy::kMuve;
  EXPECT_EQ(options.SchemeName(), "MuVE-MuVE");

  options.partition.kind = PartitionKind::kGeometric;
  EXPECT_EQ(options.SchemeName(), "MuVE(G)-MuVE");

  options.partition.kind = PartitionKind::kAdditive;
  options.partition.step = 4;
  EXPECT_EQ(options.SchemeName(), "MuVE(A)-MuVE");

  options.partition.step = 1;
  options.approximation = VerticalApproximation::kRefinement;
  EXPECT_EQ(options.SchemeName(), "MuVE-MuVE(R)");

  options.approximation = VerticalApproximation::kSkipping;
  EXPECT_EQ(options.SchemeName(), "MuVE-MuVE(S)");
}

TEST(SearchOptionsTest, ValidationCatchesBadConfigs) {
  SearchOptions bad_weights;
  bad_weights.weights = Weights{0.5, 0.5, 0.5};
  EXPECT_FALSE(bad_weights.Validate().ok());

  SearchOptions bad_k;
  bad_k.k = 0;
  EXPECT_FALSE(bad_k.Validate().ok());

  SearchOptions bad_step;
  bad_step.partition.step = -1;
  EXPECT_FALSE(bad_step.Validate().ok());

  SearchOptions bad_def;
  bad_def.refinement_default_bins = 0;
  EXPECT_FALSE(bad_def.Validate().ok());

  SearchOptions linear_muve;
  linear_muve.horizontal = HorizontalStrategy::kLinear;
  linear_muve.vertical = VerticalStrategy::kMuve;
  EXPECT_FALSE(linear_muve.Validate().ok());

  SearchOptions hc_muve;
  hc_muve.horizontal = HorizontalStrategy::kHillClimbing;
  hc_muve.vertical = VerticalStrategy::kMuve;
  EXPECT_FALSE(hc_muve.Validate().ok());
}

TEST(SearchOptionsTest, StrategyNames) {
  EXPECT_STREQ(HorizontalStrategyName(HorizontalStrategy::kLinear),
               "Linear");
  EXPECT_STREQ(HorizontalStrategyName(HorizontalStrategy::kHillClimbing),
               "HC");
  EXPECT_STREQ(HorizontalStrategyName(HorizontalStrategy::kMuve), "MuVE");
  EXPECT_STREQ(VerticalStrategyName(VerticalStrategy::kLinear), "Linear");
  EXPECT_STREQ(VerticalStrategyName(VerticalStrategy::kMuve), "MuVE");
}

}  // namespace
}  // namespace muve::core
