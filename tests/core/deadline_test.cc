// Deadline-determinism and graceful-degradation suite for the
// execution-control layer (common/exec_context.h).
//
// The contract under test (core/recommender.h):
//   1. A run whose bounds never trip is BIT-IDENTICAL to the unbounded
//      run — same views, same bins, same exact utilities — at any thread
//      count.  The boundary polls sit strictly before work units, so an
//      unexpired poll cannot perturb the probe sequence.
//   2. A run whose bounds trip still returns OK with the best top-k found
//      so far, and ExecStats::completeness reports the degradation: the
//      degraded flag, the first cause as a StatusCode, and skip counters.
//   3. Expiring bounds never produce UB (run this suite under ASan/TSan:
//      it carries the `tsan` ctest label).
//
// Fuzzed over random datasets via tests/fuzz_util.h seeding.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "data/toy.h"
#include "fuzz_util.h"
#include "storage/predicate.h"

namespace muve::core {
namespace {

// Same shape as fuzz_exactness_test's generator, kept local so the two
// suites can evolve their distributions independently.
data::Dataset RandomDataset(uint64_t seed) {
  common::Rng rng(seed);
  const int num_numeric = 1 + static_cast<int>(rng.UniformInt(0, 2));
  const bool with_categorical = rng.Bernoulli(0.4);
  const int num_measures = 1 + static_cast<int>(rng.UniformInt(0, 1));
  const size_t rows = 30 + static_cast<size_t>(rng.UniformInt(0, 60));

  storage::Schema schema;
  data::Dataset ds;
  for (int d = 0; d < num_numeric; ++d) {
    const std::string name = "dim" + std::to_string(d);
    MUVE_CHECK(schema
                   .AddField({name, storage::ValueType::kInt64,
                              storage::FieldRole::kDimension})
                   .ok());
    ds.dimensions.push_back(name);
  }
  if (with_categorical) {
    MUVE_CHECK(schema
                   .AddField({"cat", storage::ValueType::kString,
                              storage::FieldRole::kCategoricalDimension})
                   .ok());
    ds.categorical_dimensions.push_back("cat");
  }
  MUVE_CHECK(schema.AddField({"sel", storage::ValueType::kInt64}).ok());
  for (int m = 0; m < num_measures; ++m) {
    const std::string name = "m" + std::to_string(m);
    MUVE_CHECK(schema
                   .AddField({name, storage::ValueType::kDouble,
                              storage::FieldRole::kMeasure})
                   .ok());
    ds.measures.push_back(name);
  }

  auto table = std::make_shared<storage::Table>(schema);
  const char* cats[] = {"p", "q", "r", "s"};
  std::vector<int64_t> ranges(static_cast<size_t>(num_numeric));
  for (auto& r : ranges) r = 4 + rng.UniformInt(0, 30);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<storage::Value> row;
    for (int d = 0; d < num_numeric; ++d) {
      row.emplace_back(rng.UniformInt(0, ranges[static_cast<size_t>(d)]));
    }
    if (with_categorical) row.emplace_back(cats[rng.UniformInt(0, 3)]);
    row.emplace_back(rng.UniformInt(0, 2));
    for (int m = 0; m < num_measures; ++m) {
      row.emplace_back(rng.Uniform(0, 20));
    }
    MUVE_CHECK(table->AppendRow(row).ok());
  }

  ds.name = "deadline_fuzz" + std::to_string(seed);
  ds.table = table;
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kAvg,
                  storage::AggregateFunction::kCount};
  ds.query_predicate_sql = "sel = 1";
  auto pred = storage::MakeComparison("sel", storage::CompareOp::kEq,
                                      storage::Value(int64_t{1}));
  auto selected = storage::Filter(*table, pred.get());
  MUVE_CHECK(selected.ok());
  ds.target_rows = std::move(selected).value();
  if (ds.target_rows.empty()) ds.target_rows = {0};
  ds.all_rows = storage::AllRows(table->num_rows());
  return ds;
}

struct SchemeSpec {
  const char* name;
  HorizontalStrategy horizontal;
  VerticalStrategy vertical;
  VerticalApproximation approximation = VerticalApproximation::kNone;
};

constexpr SchemeSpec kSchemes[] = {
    {"linear-linear", HorizontalStrategy::kLinear, VerticalStrategy::kLinear},
    {"hc-linear", HorizontalStrategy::kHillClimbing,
     VerticalStrategy::kLinear},
    {"muve-linear", HorizontalStrategy::kMuve, VerticalStrategy::kLinear},
    {"muve-muve", HorizontalStrategy::kMuve, VerticalStrategy::kMuve},
    {"linear-linear/refine", HorizontalStrategy::kLinear,
     VerticalStrategy::kLinear, VerticalApproximation::kRefinement},
    {"linear-linear/skip", HorizontalStrategy::kLinear,
     VerticalStrategy::kLinear, VerticalApproximation::kSkipping},
};

SearchOptions OptionsFor(const SchemeSpec& scheme, int k, int threads) {
  SearchOptions options;
  options.horizontal = scheme.horizontal;
  options.vertical = scheme.vertical;
  options.approximation = scheme.approximation;
  options.k = k;
  options.num_threads = threads;
  return options;
}

// Bit-identical comparison: exact double equality on utilities, exact
// identity on the recommended (view, bins) list.
void ExpectIdentical(const Recommendation& expected,
                     const Recommendation& actual, const char* label) {
  ASSERT_EQ(expected.views.size(), actual.views.size()) << label;
  for (size_t i = 0; i < expected.views.size(); ++i) {
    const ScoredView& e = expected.views[i];
    const ScoredView& a = actual.views[i];
    EXPECT_EQ(e.view.dimension, a.view.dimension) << label << " rank " << i;
    EXPECT_EQ(e.view.measure, a.view.measure) << label << " rank " << i;
    EXPECT_EQ(e.view.function, a.view.function) << label << " rank " << i;
    EXPECT_EQ(e.bins, a.bins) << label << " rank " << i;
    EXPECT_EQ(e.utility, a.utility) << label << " rank " << i;
  }
}

class DeadlineDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

// Contract 1: a generous, never-tripping deadline (plus a generous row
// budget) leaves every scheme's output bit-identical to the unbounded
// run, serial and parallel.
TEST_P(DeadlineDeterminismTest, GenerousBoundsAreBitIdentical) {
  const uint64_t seed = testutil::FuzzSeed(GetParam());
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  const data::Dataset ds = RandomDataset(seed);
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

  for (const SchemeSpec& scheme : kSchemes) {
    SCOPED_TRACE(scheme.name);
    const SearchOptions unbounded = OptionsFor(scheme, 4, 1);
    auto baseline = recommender->Recommend(unbounded);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_FALSE(baseline->stats.completeness.degraded);

    for (const int threads : {1, 8}) {
      SearchOptions bounded = OptionsFor(scheme, 4, threads);
      bounded.deadline_ms = 60'000.0;         // an hour-scale bound: never trips
      bounded.max_rows_scanned = 100'000'000;  // ditto
      bounded.cancel_token = std::make_shared<common::CancellationToken>();
      auto run = recommender->Recommend(bounded);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_FALSE(run->stats.completeness.degraded)
          << scheme.name << " threads=" << threads;
      EXPECT_EQ(run->stats.completeness.status, common::StatusCode::kOk);
      ExpectIdentical(*baseline, *run, scheme.name);
    }
  }
}

// Contract 2+3: an already-expired deadline degrades gracefully — OK
// status, empty top-k, degraded completeness with the deadline cause —
// at 1 and 8 threads, for every scheme.
TEST_P(DeadlineDeterminismTest, ZeroDeadlineDegradesGracefully) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0xD00DULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  const data::Dataset ds = RandomDataset(seed);
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok()) << recommender.status().ToString();

  for (const SchemeSpec& scheme : kSchemes) {
    SCOPED_TRACE(scheme.name);
    for (const int threads : {1, 8}) {
      SearchOptions options = OptionsFor(scheme, 4, threads);
      options.deadline_ms = 0.0;
      auto run = recommender->Recommend(options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->views.empty()) << scheme.name;
      const ExecCompleteness& comp = run->stats.completeness;
      EXPECT_TRUE(comp.degraded) << scheme.name;
      EXPECT_EQ(comp.status, common::StatusCode::kDeadlineExceeded)
          << scheme.name;
      EXPECT_EQ(comp.views_fully_searched, 0) << scheme.name;
      EXPECT_GT(comp.bins_pruned_by_deadline, 0) << scheme.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineDeterminismTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(DeadlineTest, PreCancelledTokenReportsCancelled) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.cancel_token = std::make_shared<common::CancellationToken>();
  options.cancel_token->Cancel();
  auto run = recommender->Recommend(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->views.empty());
  EXPECT_TRUE(run->stats.completeness.degraded);
  EXPECT_EQ(run->stats.completeness.status, common::StatusCode::kCancelled);
}

TEST(DeadlineTest, TinyRowBudgetReportsResourceExhausted) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.max_rows_scanned = 1;  // trips after the first charged scan
  auto run = recommender->Recommend(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ExecCompleteness& comp = run->stats.completeness;
  EXPECT_TRUE(comp.degraded);
  EXPECT_EQ(comp.status, common::StatusCode::kResourceExhausted);
  // The budget is polled at boundaries, so a little overshoot is allowed,
  // but the run must stop well short of the unbounded row count.
  SearchOptions unbounded;
  auto full = recommender->Recommend(unbounded);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(run->stats.rows_scanned, full->stats.rows_scanned);
}

TEST(DeadlineTest, MidRunCancellationFromAnotherThreadIsSafe) {
  // Races the cancel against the search: whichever way it lands, the run
  // must return OK, and a degraded run must report kCancelled.  Exercises
  // the concurrent-latch path under TSan.
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  for (int trial = 0; trial < 5; ++trial) {
    SearchOptions options;
    options.horizontal = HorizontalStrategy::kMuve;
    options.vertical = VerticalStrategy::kMuve;
    options.num_threads = 4;
    options.cancel_token = std::make_shared<common::CancellationToken>();
    std::thread canceller(
        [token = options.cancel_token] { token->Cancel(); });
    auto run = recommender->Recommend(options);
    canceller.join();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const ExecCompleteness& comp = run->stats.completeness;
    if (comp.degraded) {
      EXPECT_EQ(comp.status, common::StatusCode::kCancelled);
    } else {
      EXPECT_EQ(comp.status, common::StatusCode::kOk);
    }
    // Whatever was returned is a valid descending top-k prefix.
    for (size_t i = 1; i < run->views.size(); ++i) {
      EXPECT_GE(run->views[i - 1].utility, run->views[i].utility);
    }
  }
}

TEST(DeadlineTest, InvalidRowBudgetIsRejected) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.max_rows_scanned = -5;
  auto run = recommender->Recommend(options);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(DeadlineTest, DegradedStatsSurviveMergeIntoToString) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  SearchOptions options;
  options.deadline_ms = 0.0;
  auto run = recommender->Recommend(options);
  ASSERT_TRUE(run.ok());
  const std::string text = run->stats.ToString();
  EXPECT_NE(text.find("DEGRADED"), std::string::npos) << text;
  EXPECT_NE(text.find("deadline_exceeded"), std::string::npos) << text;
  // An unbounded run's stats line must NOT carry degradation tokens
  // (pins the golden-file stability of complete runs).
  SearchOptions unbounded;
  auto full = recommender->Recommend(unbounded);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats.ToString().find("DEGRADED"), std::string::npos);
}

}  // namespace
}  // namespace muve::core
