// The score memo (core/score_memo.h): slots round-trip exact bits, and a
// Recommend() that reads and fills a memo answers what a memo-free run
// answers — same views, same bits, same search counters — while later
// runs on the same memo skip the probes they can.

#include "core/score_memo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "test_util.h"

namespace muve::core {
namespace {

constexpr HorizontalStrategy kHorizontal[] = {
    HorizontalStrategy::kLinear, HorizontalStrategy::kHillClimbing,
    HorizontalStrategy::kMuve, HorizontalStrategy::kMuve};
constexpr VerticalStrategy kVertical[] = {
    VerticalStrategy::kLinear, VerticalStrategy::kLinear,
    VerticalStrategy::kLinear, VerticalStrategy::kMuve};

Recommender MakeRecommender(bool categorical) {
  data::Dataset dataset = testutil::MakeToyDataset();
  if (categorical) dataset.categorical_dimensions = {"grp"};
  auto recommender = Recommender::Create(std::move(dataset));
  EXPECT_TRUE(recommender.ok()) << recommender.status().ToString();
  return std::move(recommender).value();
}

TEST(ScoreMemoTest, SlotsRoundTripExactBits) {
  const Recommender recommender = MakeRecommender(/*categorical=*/false);
  const ViewSpace& space = recommender.space();
  ScoreMemo memo(space);
  EXPECT_TRUE(memo.Fits(space));
  const int max_bins = space.dimensions()[0].max_bins;
  const int kind = ScoreMemo::DeviationKind(DistanceKind::kEuclidean);
  const size_t empty_bytes = memo.bytes();

  EXPECT_FALSE(memo.Get(kind, 0, 1).has_value());
  const double value = std::nextafter(0.1, 1.0);
  EXPECT_TRUE(memo.Put(kind, 0, 1, value));
  EXPECT_GT(memo.bytes(), empty_bytes);
  // First write wins; a second write of a slot stores nothing.
  EXPECT_FALSE(memo.Put(kind, 0, 1, 0.5));
  ASSERT_TRUE(memo.Get(kind, 0, 1).has_value());
  EXPECT_EQ(*memo.Get(kind, 0, 1), value);
  // Kinds and distances have their own slots.
  EXPECT_FALSE(memo.Get(ScoreMemo::AccuracyKind(), 0, 1).has_value());
  EXPECT_FALSE(memo.Get(ScoreMemo::DeviationKind(DistanceKind::kManhattan),
                        0, 1)
                   .has_value());
  // Negative zero and a NaN keep their bits.
  EXPECT_TRUE(memo.Put(kind, 0, 2, -0.0));
  EXPECT_TRUE(std::signbit(*memo.Get(kind, 0, 2)));
  EXPECT_TRUE(
      memo.Put(kind, 0, 3, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(*memo.Get(kind, 0, 3)));
  // Out of range: no slot.
  EXPECT_FALSE(memo.Put(kind, 0, 0, 1.0));
  EXPECT_FALSE(memo.Put(kind, 0, max_bins + 1, 1.0));
  EXPECT_FALSE(memo.Put(kind, -1, 1, 1.0));
  EXPECT_FALSE(
      memo.Put(kind, static_cast<int>(space.views().size()), 1, 1.0));
  EXPECT_FALSE(memo.Get(kind, 0, max_bins + 1).has_value());
}

TEST(ScoreMemoTest, MemoizedRunsMatchMemoFreeRunsForEveryScheme) {
  for (const bool categorical : {false, true}) {
    const Recommender recommender = MakeRecommender(categorical);
    auto memo = std::make_shared<ScoreMemo>(recommender.space());
    int64_t runs = 0;
    for (const Weights& weights :
         {Weights::PaperDefault(), Weights{0.6, 0.2, 0.2},
          Weights{0.2, 0.6, 0.2}}) {
      for (const int k : {1, 4}) {
        for (size_t s = 0; s < std::size(kHorizontal); ++s) {
          SearchOptions options;
          options.horizontal = kHorizontal[s];
          options.vertical = kVertical[s];
          options.weights = weights;
          options.k = k;
          // A fixed probe order makes the search counters deterministic.
          options.probe_order = ProbeOrderPolicy::kDeviationFirst;
          auto cold = recommender.Recommend(options);
          options.score_memo = memo;
          auto warm = recommender.Recommend(options);
          ASSERT_TRUE(cold.ok() && warm.ok());
          const std::string label = options.SchemeName() + " " +
                                    weights.ToString() + " k=" +
                                    std::to_string(k);
          ASSERT_EQ(warm->views.size(), cold->views.size()) << label;
          for (size_t i = 0; i < cold->views.size(); ++i) {
            EXPECT_EQ(warm->views[i].view, cold->views[i].view) << label;
            EXPECT_EQ(warm->views[i].bins, cold->views[i].bins) << label;
            EXPECT_EQ(warm->views[i].utility, cold->views[i].utility)
                << label;
            EXPECT_EQ(warm->views[i].deviation, cold->views[i].deviation)
                << label;
            EXPECT_EQ(warm->views[i].accuracy, cold->views[i].accuracy)
                << label;
          }
          EXPECT_EQ(warm->stats.candidates_considered,
                    cold->stats.candidates_considered)
              << label;
          EXPECT_EQ(warm->stats.fully_probed, cold->stats.fully_probed)
              << label;
          EXPECT_EQ(cold->stats.memo_hits + cold->stats.memo_fills, 0);
          // A hit skips a probe; every evaluation is a hit or a probe.
          EXPECT_EQ(warm->stats.memo_hits + warm->stats.deviation_evals +
                        warm->stats.accuracy_evals,
                    cold->stats.deviation_evals + cold->stats.accuracy_evals)
              << label;
          if (runs++ > 0) EXPECT_GT(warm->stats.memo_hits, 0) << label;
        }
      }
    }
  }
}

TEST(ScoreMemoTest, FilledMemoAnswersWithoutProbing) {
  const Recommender recommender = MakeRecommender(/*categorical=*/false);
  auto memo = std::make_shared<ScoreMemo>(recommender.space());
  SearchOptions options;
  options.horizontal = HorizontalStrategy::kLinear;
  options.vertical = VerticalStrategy::kLinear;
  options.score_memo = memo;
  auto first = recommender.Recommend(options);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->stats.memo_fills, 0);
  EXPECT_GT(first->stats.target_queries, 0);

  options.weights = Weights{0.2, 0.2, 0.6};
  options.k = 2;
  auto second = recommender.Recommend(options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.memo_fills, 0);
  EXPECT_EQ(second->stats.memo_hits,
            2 * second->stats.candidates_considered);
  EXPECT_EQ(second->stats.target_queries, 0);
  EXPECT_EQ(second->stats.comparison_queries, 0);
  EXPECT_EQ(second->stats.deviation_time_ms, 0.0);
  EXPECT_EQ(second->stats.accuracy_time_ms, 0.0);
}

TEST(ScoreMemoTest, SampledRunsNeitherReadNorFill) {
  const Recommender recommender = MakeRecommender(/*categorical=*/false);
  auto memo = std::make_shared<ScoreMemo>(recommender.space());
  const size_t empty_bytes = memo->bytes();
  SearchOptions options;
  options.sample_fraction = 0.5;
  options.score_memo = memo;
  auto rec = recommender.Recommend(options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->stats.memo_hits + rec->stats.memo_fills, 0);
  EXPECT_EQ(memo->bytes(), empty_bytes);
}

TEST(ScoreMemoTest, MemoOfAnotherSpaceIsRejected) {
  const Recommender plain = MakeRecommender(/*categorical=*/false);
  const Recommender categorical = MakeRecommender(/*categorical=*/true);
  SearchOptions options;
  options.score_memo = std::make_shared<ScoreMemo>(categorical.space());
  auto rec = plain.Recommend(options);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ScoreMemoTest, ConcurrentRunsFillOneMemo) {
  // Four threads on four schemes fill one memo at once (TSan coverage of
  // the block and slot publication); every answer equals a memo-free
  // run's.
  const Recommender recommender = MakeRecommender(/*categorical=*/true);
  auto memo = std::make_shared<ScoreMemo>(recommender.space());
  std::vector<Recommendation> cold(std::size(kHorizontal));
  std::vector<Recommendation> warm(std::size(kHorizontal));
  auto options_of = [](size_t s) {
    SearchOptions options;
    options.horizontal = kHorizontal[s];
    options.vertical = kVertical[s];
    options.num_threads = 2;
    return options;
  };
  for (size_t s = 0; s < cold.size(); ++s) {
    auto rec = recommender.Recommend(options_of(s));
    ASSERT_TRUE(rec.ok());
    cold[s] = std::move(rec).value();
  }
  std::vector<std::thread> threads;
  for (size_t s = 0; s < warm.size(); ++s) {
    threads.emplace_back([&, s] {
      SearchOptions options = options_of(s);
      options.score_memo = memo;
      for (int round = 0; round < 3; ++round) {
        auto rec = recommender.Recommend(options);
        ASSERT_TRUE(rec.ok());
        warm[s] = std::move(rec).value();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Two workers may break utility ties in either order, so utilities are
  // what must match.
  for (size_t s = 0; s < warm.size(); ++s) {
    ASSERT_EQ(warm[s].views.size(), cold[s].views.size());
    for (size_t i = 0; i < cold[s].views.size(); ++i) {
      EXPECT_EQ(warm[s].views[i].utility, cold[s].views[i].utility);
    }
    EXPECT_GT(warm[s].stats.memo_hits, 0);
  }
}

}  // namespace
}  // namespace muve::core
