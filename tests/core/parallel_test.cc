// Parallel execution must be a pure latency optimization.  Every
// vertical strategy and approximation accepts num_threads > 1 via the
// shared work-stealing pool:
//   * vertical Linear (any horizontal) shares no state across views, so
//     parallel runs are bitwise-identical to serial ones, probe counters
//     included;
//   * pruning schemes (vertical MuVE, refinement, skipping) share a
//     top-k threshold whose parallel snapshot may lag the serial one —
//     they may prune *less*, never unsoundly more — so the recommended
//     utilities are identical while probe counts may differ;
//   * shared scans batch per dimension and stay exact.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/recommender.h"
#include "data/diab.h"
#include "data/nba.h"
#include "test_util.h"

namespace muve::core {
namespace {

// Asserts rank-by-rank equality of the recommended views (keys, bins,
// and bitwise utilities).
void ExpectSameViews(const Recommendation& a, const Recommendation& b) {
  ASSERT_EQ(a.views.size(), b.views.size());
  for (size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_EQ(a.views[i].view.Key(), b.views[i].view.Key()) << "rank " << i;
    EXPECT_EQ(a.views[i].bins, b.views[i].bins) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.views[i].utility, b.views[i].utility) << "rank " << i;
  }
}

// Asserts the recommended utilities agree (the invariant for pruning
// schemes, whose tie-broken view identities and probe counts may differ
// between serial and parallel threshold schedules).
void ExpectSameUtilities(const Recommendation& a, const Recommendation& b) {
  ASSERT_EQ(a.views.size(), b.views.size());
  for (size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_NEAR(a.views[i].utility, b.views[i].utility, 1e-12)
        << "rank " << i;
  }
}

Recommendation MustRecommend(const Recommender& recommender,
                             const SearchOptions& options) {
  auto rec = recommender.Recommend(options);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString() << " scheme "
                        << options.SchemeName();
  return std::move(rec).value();
}

class ParallelTest : public ::testing::TestWithParam<HorizontalStrategy> {};

TEST_P(ParallelTest, VerticalLinearMatchesSerialExactly) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());

  SearchOptions serial;
  serial.horizontal = GetParam();
  serial.vertical = VerticalStrategy::kLinear;
  serial.k = 4;
  SearchOptions parallel = serial;
  parallel.num_threads = 4;

  const auto r_serial = MustRecommend(*recommender, serial);
  const auto r_parallel = MustRecommend(*recommender, parallel);
  ExpectSameViews(r_serial, r_parallel);
  // Vertical Linear never shares thresholds across views, so per-view
  // search results are independent of worker count.  For Linear and HC
  // the probe counters are equal too.  Horizontal MuVE's probe-order
  // priority rule adapts to the evaluator's accumulated cost
  // observations — per-worker evaluators observe different prefixes, so
  // the target/comparison probe *mix* may shift while the per-view
  // outcomes (and the fully-probed count's upper structure) stay exact.
  if (GetParam() != HorizontalStrategy::kMuve) {
    EXPECT_EQ(r_serial.stats.fully_probed, r_parallel.stats.fully_probed);
    EXPECT_EQ(r_serial.stats.target_queries,
              r_parallel.stats.target_queries);
    EXPECT_EQ(r_serial.stats.comparison_queries,
              r_parallel.stats.comparison_queries);
  }
  EXPECT_EQ(r_serial.stats.views_searched, r_parallel.stats.views_searched);
  EXPECT_EQ(r_serial.stats.num_workers, 1);
  EXPECT_EQ(r_parallel.stats.num_workers, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllHorizontals, ParallelTest,
    ::testing::Values(HorizontalStrategy::kLinear,
                      HorizontalStrategy::kHillClimbing,
                      HorizontalStrategy::kMuve),
    [](const ::testing::TestParamInfo<HorizontalStrategy>& info) {
      return HorizontalStrategyName(info.param);
    });

TEST(ParallelMuveMuveTest, UtilitiesMatchSerial) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions serial;  // default scheme is MuVE-MuVE
  serial.k = 4;
  SearchOptions parallel = serial;
  parallel.num_threads = 4;

  const auto r_serial = MustRecommend(*recommender, serial);
  const auto r_parallel = MustRecommend(*recommender, parallel);
  ExpectSameUtilities(r_serial, r_parallel);
  // No assertion on probe counters here: the parallel threshold snapshot
  // can lag (weaker pruning, more probes), while per-worker cost models
  // can flip the probe order (reclassifying fully-probed candidates as
  // pruned-after-first-probe, fewer probes) — the counters move in both
  // directions depending on scheduling.  The utilities above are the
  // invariant.
}

class ParallelApproximationTest
    : public ::testing::TestWithParam<VerticalApproximation> {};

TEST_P(ParallelApproximationTest, UtilitiesMatchSerial) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions serial;
  serial.horizontal = HorizontalStrategy::kLinear;
  serial.vertical = VerticalStrategy::kLinear;
  serial.approximation = GetParam();
  SearchOptions parallel = serial;
  parallel.num_threads = 4;

  const auto r_serial = MustRecommend(*recommender, serial);
  const auto r_parallel = MustRecommend(*recommender, parallel);
  ExpectSameUtilities(r_serial, r_parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Approximations, ParallelApproximationTest,
    ::testing::Values(VerticalApproximation::kRefinement,
                      VerticalApproximation::kSkipping),
    [](const ::testing::TestParamInfo<VerticalApproximation>& info) {
      return info.param == VerticalApproximation::kRefinement ? "Refinement"
                                                             : "Skipping";
    });

TEST(ParallelValidationTest, MoreThreadsThanViewsIsFine) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.horizontal = HorizontalStrategy::kLinear;
  options.vertical = VerticalStrategy::kLinear;
  options.num_threads = 64;  // toy dataset has 8 views
  auto rec = recommender->Recommend(options);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->views.size(), 5u);
  // The pool is clamped to the view count; no idle threads are spawned.
  EXPECT_LE(rec->stats.num_workers, 8);
}

TEST(ParallelValidationTest, EverySchemeAcceptsThreads) {
  // All vertical strategies and approximations run on the shared pool;
  // none reject num_threads > 1 anymore.
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  std::vector<SearchOptions> schemes;
  {
    SearchOptions muve_muve;  // default MuVE-MuVE
    schemes.push_back(muve_muve);
    SearchOptions refine;
    refine.horizontal = HorizontalStrategy::kLinear;
    refine.vertical = VerticalStrategy::kLinear;
    refine.approximation = VerticalApproximation::kRefinement;
    schemes.push_back(refine);
    SearchOptions skip = refine;
    skip.approximation = VerticalApproximation::kSkipping;
    schemes.push_back(skip);
    SearchOptions sampled;
    sampled.horizontal = HorizontalStrategy::kMuve;
    sampled.vertical = VerticalStrategy::kLinear;
    sampled.sample_fraction = 0.5;
    schemes.push_back(sampled);
  }
  for (SearchOptions options : schemes) {
    options.num_threads = 2;
    auto rec = recommender->Recommend(options);
    EXPECT_TRUE(rec.ok()) << options.SchemeName() << ": "
                          << rec.status().ToString();
    if (rec.ok()) EXPECT_FALSE(rec->views.empty()) << options.SchemeName();
  }
}

TEST(ParallelValidationTest, RejectsNonPositiveThreadCount) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions zero;
  zero.num_threads = 0;
  EXPECT_FALSE(recommender->Recommend(zero).ok());
  SearchOptions negative;
  negative.num_threads = -3;
  EXPECT_FALSE(recommender->Recommend(negative).ok());
}

TEST(ParallelDeterminismTest, HillClimbingSeedsByViewNotOrder) {
  // Running twice with different thread counts must agree because HC's
  // random start depends only on (seed, view index), not on which worker
  // picks the view up first.
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions base;
  base.horizontal = HorizontalStrategy::kHillClimbing;
  base.vertical = VerticalStrategy::kLinear;
  base.hc_seed = 99;

  SearchOptions two = base;
  two.num_threads = 2;
  SearchOptions seven = base;
  seven.num_threads = 7;

  const auto a = MustRecommend(*recommender, two);
  const auto b = MustRecommend(*recommender, seven);
  ExpectSameViews(a, b);
}

TEST(ParallelDeterminismTest, SkippingWithHillClimbingIsThreadCountInvariant) {
  // View skipping seeds each dimension representative's HC walk by the
  // representative's view index, so the outcome cannot depend on worker
  // scheduling.
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions base;
  base.horizontal = HorizontalStrategy::kHillClimbing;
  base.vertical = VerticalStrategy::kLinear;
  base.approximation = VerticalApproximation::kSkipping;
  base.hc_seed = 7;

  SearchOptions two = base;
  two.num_threads = 2;
  SearchOptions seven = base;
  seven.num_threads = 7;

  const auto a = MustRecommend(*recommender, two);
  const auto b = MustRecommend(*recommender, seven);
  ExpectSameViews(a, b);
}

// Acceptance check on the paper's real workloads: for exact schemes the
// parallel top-k is identical to the serial top-k on NBA and DIAB
// (3 dimensions x 3 measures x 3 functions).
class RealDatasetParallelTest : public ::testing::TestWithParam<const char*> {
 protected:
  static data::Dataset MakeDataset(const std::string& name) {
    if (name == "nba") {
      return data::WithWorkloadSize(data::MakeNbaDataset(), 3, 3, 3);
    }
    return data::WithWorkloadSize(data::MakeDiabDataset(), 3, 3, 3);
  }
};

TEST_P(RealDatasetParallelTest, ExactSchemesMatchSerial) {
  auto recommender = Recommender::Create(MakeDataset(GetParam()));
  ASSERT_TRUE(recommender.ok());

  std::vector<SearchOptions> exact_schemes;
  {
    SearchOptions linear_linear;
    linear_linear.horizontal = HorizontalStrategy::kLinear;
    linear_linear.vertical = VerticalStrategy::kLinear;
    exact_schemes.push_back(linear_linear);
    SearchOptions muve_linear;
    muve_linear.horizontal = HorizontalStrategy::kMuve;
    muve_linear.vertical = VerticalStrategy::kLinear;
    exact_schemes.push_back(muve_linear);
    SearchOptions muve_muve;  // defaults
    exact_schemes.push_back(muve_muve);
  }

  for (const SearchOptions& serial : exact_schemes) {
    SearchOptions parallel = serial;
    parallel.num_threads = 4;
    const auto r_serial = MustRecommend(*recommender, serial);
    const auto r_parallel = MustRecommend(*recommender, parallel);
    SCOPED_TRACE(serial.SchemeName());
    // All four schemes are exact; MuVE's pruning keeps the same optimum,
    // and the deterministic merge keeps the same tie-breaking, so view
    // identities match, not just utilities.
    ExpectSameViews(r_serial, r_parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, RealDatasetParallelTest,
                         ::testing::Values("nba", "diab"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace muve::core
