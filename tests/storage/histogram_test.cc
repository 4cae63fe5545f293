#include "histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace muve::storage {
namespace {

using Kind = Histogram::Kind;

Histogram MustBuild(Kind kind, std::vector<double> values, int buckets) {
  auto result = BuildHistogram(kind, std::move(values), buckets);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Histogram{};
}

TEST(SegmentSseTest, MatchesDirectComputation) {
  const std::vector<double> values = {1.0, 2.0, 4.0, 8.0};
  // Whole range: mean 3.75, SSE = sum (v - 3.75)^2 = 29.75... compute:
  // (2.75)^2 + (1.75)^2 + (0.25)^2 + (4.25)^2 = 7.5625+3.0625+0.0625+18.0625
  EXPECT_NEAR(SegmentSse(values, 0, 4), 28.75, 1e-9);
  EXPECT_DOUBLE_EQ(SegmentSse(values, 1, 2), 0.0);  // singleton
  EXPECT_NEAR(SegmentSse(values, 0, 2), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(SegmentSse(values, 2, 2), 0.0);  // empty
}

TEST(HistogramTest, InvalidInputs) {
  EXPECT_FALSE(BuildHistogram(Kind::kEquiWidth, {}, 3).ok());
  EXPECT_FALSE(BuildHistogram(Kind::kEquiWidth, {1.0}, 0).ok());
}

TEST(HistogramTest, SingleBucketCoversEverything) {
  for (const Kind kind :
       {Kind::kEquiWidth, Kind::kEquiDepth, Kind::kVOptimal}) {
    const Histogram h = MustBuild(kind, {3.0, 1.0, 2.0}, 1);
    ASSERT_EQ(h.buckets.size(), 1u) << HistogramKindName(kind);
    EXPECT_EQ(h.buckets[0].count(), 3u);
    EXPECT_DOUBLE_EQ(h.buckets[0].lo, 1.0);
    EXPECT_DOUBLE_EQ(h.buckets[0].hi, 3.0);
    EXPECT_DOUBLE_EQ(h.buckets[0].mean, 2.0);
    EXPECT_NEAR(h.buckets[0].sse, 2.0, 1e-12);
  }
}

TEST(HistogramTest, ConstantSeriesHasZeroSse) {
  for (const Kind kind :
       {Kind::kEquiWidth, Kind::kEquiDepth, Kind::kVOptimal}) {
    const Histogram h = MustBuild(kind, std::vector<double>(10, 5.0), 4);
    EXPECT_DOUBLE_EQ(h.TotalSse(), 0.0) << HistogramKindName(kind);
  }
}

TEST(EquiWidthTest, SplitsRangeUniformly) {
  // Values 0..9, 2 buckets of width 4.5: [0..4], [5..9].
  std::vector<double> values;
  for (int i = 0; i < 10; ++i) values.push_back(i);
  const Histogram h = MustBuild(Kind::kEquiWidth, values, 2);
  ASSERT_EQ(h.buckets.size(), 2u);
  EXPECT_EQ(h.buckets[0].count(), 5u);
  EXPECT_EQ(h.buckets[1].count(), 5u);
  EXPECT_DOUBLE_EQ(h.buckets[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(h.buckets[1].mean, 7.0);
}

TEST(EquiWidthTest, SkewedDataLeavesEmptyIntervalsOut) {
  // Mass clustered at both ends: middle intervals have no bucket.
  const Histogram h =
      MustBuild(Kind::kEquiWidth, {0.0, 0.1, 0.2, 9.8, 9.9, 10.0}, 5);
  EXPECT_LT(h.buckets.size(), 5u);
  size_t total = 0;
  for (const auto& b : h.buckets) total += b.count();
  EXPECT_EQ(total, 6u);
}

TEST(EquiDepthTest, UniformMassPerBucket) {
  std::vector<double> values;
  for (int i = 0; i < 12; ++i) values.push_back(std::pow(2.0, i));
  const Histogram h = MustBuild(Kind::kEquiDepth, values, 4);
  ASSERT_EQ(h.buckets.size(), 4u);
  for (const auto& b : h.buckets) EXPECT_EQ(b.count(), 3u);
}

TEST(EquiDepthTest, RemainderSpreadEvenly) {
  std::vector<double> values;
  for (int i = 0; i < 10; ++i) values.push_back(i);
  const Histogram h = MustBuild(Kind::kEquiDepth, values, 3);
  ASSERT_EQ(h.buckets.size(), 3u);
  size_t total = 0;
  for (const auto& b : h.buckets) {
    EXPECT_GE(b.count(), 3u);
    EXPECT_LE(b.count(), 4u);
    total += b.count();
  }
  EXPECT_EQ(total, 10u);
}

TEST(EquiDepthTest, MoreBucketsThanValuesClamps) {
  const Histogram h = MustBuild(Kind::kEquiDepth, {1.0, 2.0}, 5);
  EXPECT_EQ(h.buckets.size(), 2u);
}

TEST(VOptimalTest, FindsTheObviousSplit) {
  // Two tight clusters: the optimal 2-bucket split separates them.
  const Histogram h = MustBuild(
      Kind::kVOptimal, {1.0, 1.1, 0.9, 100.0, 100.1, 99.9}, 2);
  ASSERT_EQ(h.buckets.size(), 2u);
  EXPECT_EQ(h.buckets[0].count(), 3u);
  EXPECT_EQ(h.buckets[1].count(), 3u);
  EXPECT_LT(h.TotalSse(), 0.1);
}

TEST(VOptimalTest, ExactBucketsPerValueIsPerfect) {
  const Histogram h = MustBuild(Kind::kVOptimal, {5.0, 1.0, 9.0}, 3);
  EXPECT_EQ(h.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(h.TotalSse(), 0.0);
}

// The defining property: V-optimal minimizes SSE, so it never loses to
// the other partitioning schemes on any input.
class VOptimalDominanceTest : public ::testing::TestWithParam<int> {};

TEST_P(VOptimalDominanceTest, NeverWorseThanOtherSchemes) {
  const int buckets = GetParam();
  common::Rng rng(1234 + static_cast<uint64_t>(buckets));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> values;
    const int n = 5 + static_cast<int>(rng.UniformInt(0, 40));
    for (int i = 0; i < n; ++i) {
      // Mixture of clusters and outliers to stress the partitioners.
      values.push_back(rng.Bernoulli(0.2) ? rng.Uniform(90, 100)
                                          : rng.Normal(10, 3));
    }
    const double v_opt =
        MustBuild(Kind::kVOptimal, values, buckets).TotalSse();
    const double equi_w =
        MustBuild(Kind::kEquiWidth, values, buckets).TotalSse();
    const double equi_d =
        MustBuild(Kind::kEquiDepth, values, buckets).TotalSse();
    EXPECT_LE(v_opt, equi_w + 1e-9) << "trial " << trial << " n=" << n;
    EXPECT_LE(v_opt, equi_d + 1e-9) << "trial " << trial << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BucketSweep, VOptimalDominanceTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(HistogramTest, SseMonotoneInBuckets) {
  // More buckets never hurt the optimal SSE.
  common::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) values.push_back(rng.Uniform(0, 100));
  double prev = std::numeric_limits<double>::infinity();
  for (int b : {1, 2, 4, 8, 16, 32}) {
    const Histogram h = MustBuild(Kind::kVOptimal, values, b);
    EXPECT_LE(h.TotalSse(), prev + 1e-9) << "buckets=" << b;
    prev = h.TotalSse();
  }
}

TEST(HistogramTest, ToStringMentionsKindAndSse) {
  const Histogram h = MustBuild(Kind::kEquiDepth, {1.0, 2.0, 3.0}, 2);
  const std::string text = h.ToString();
  EXPECT_NE(text.find("equi-depth"), std::string::npos);
  EXPECT_NE(text.find("SSE="), std::string::npos);
}

}  // namespace
}  // namespace muve::storage
