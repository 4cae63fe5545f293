// Fault-injection suite (ctest label: faults).
//
// Exercises the failure model end to end by flipping the failpoints baked
// into production code (common/failpoint.h) and asserting that every
// injected fault degrades gracefully:
//   * I/O faults surface as error Statuses (and CLI exit codes), never
//     aborts;
//   * cache allocation refusals cost rescans, never correctness;
//   * aborted fused scans fall back to direct builds or fail typed;
//   * worker-task exceptions are rethrown caller-side, never terminate.
//
// The whole suite requires a build with -DMUVE_FAILPOINTS=ON (the `faults`
// CI job); in an ordinary build every case skips via FailpointsCompiledIn.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base_build_util.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/recommender.h"
#include "data/toy.h"
#include "storage/base_histogram_cache.h"
#include "storage/csv.h"
#include "storage/fused_scan.h"
#include "storage/predicate.h"

namespace muve {
namespace {

using common::FailpointAction;
using common::StatusCode;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::FailpointsCompiledIn()) {
      GTEST_SKIP() << "build without -DMUVE_FAILPOINTS=ON; nothing to inject";
    }
  }
  void TearDown() override { common::ClearFailpoints(); }
};

std::string WriteTempCsv(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << "a,b\n1,2\n3,4\n";
  return path;
}

// --- csv.read ---

TEST_F(FaultInjectionTest, CsvReadFaultReturnsIoError) {
  const std::string path = WriteTempCsv("fault_csv_ok.csv");
  ASSERT_TRUE(common::SetFailpoint("csv.read", "error").ok());
  auto result = storage::ReadCsvFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, CsvReadRecoversOnceFaultClears) {
  const std::string path = WriteTempCsv("fault_csv_recover.csv");
  ASSERT_TRUE(common::SetFailpoint("csv.read", "error").ok());
  ASSERT_FALSE(storage::ReadCsvFile(path).ok());
  common::ClearFailpoints();
  auto result = storage::ReadCsvFile(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2u);
}

// --- cache.insert (allocation refused) ---

TEST_F(FaultInjectionTest, CacheInsertOomServesBuildButForgets) {
  const data::Dataset ds = data::MakeToyDataset();
  ASSERT_TRUE(common::SetFailpoint("cache.insert", "oom").ok());
  storage::BaseHistogramCache cache;
  auto first = testutil::FetchOne(cache, "k", *ds.table, ds.target_rows,
                                  "x", "m1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->built);
  // The outcome still hands the histogram over; the cache forgot it.
  ASSERT_NE(first->histogram, nullptr);
  EXPECT_GT(first->histogram->num_fine_bins(), 0u);
  EXPECT_FALSE(cache.Contains("k"));
  EXPECT_EQ(cache.TotalStats().builds, 0);
  // The next read rebuilds: OOM costs rescans, never correctness.
  auto second = testutil::FetchOne(cache, "k", *ds.table, ds.target_rows,
                                   "x", "m1");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->built);
}

TEST_F(FaultInjectionTest, CacheInsertOomKeepsRecommendationExact) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  core::SearchOptions options;
  options.horizontal = core::HorizontalStrategy::kLinear;
  options.vertical = core::VerticalStrategy::kLinear;
  auto baseline = recommender->Recommend(options);
  ASSERT_TRUE(baseline.ok());

  // Two runs on one shared store: the second reads every base back and
  // builds nothing.
  options.shared_base_cache = std::make_shared<storage::BaseHistogramCache>();
  ASSERT_TRUE(recommender->Recommend(options).ok());
  auto cached = recommender->Recommend(options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->stats.base_builds, 0);

  // The same two runs with every insert refused: each run's prewarm
  // still serves its own probes, but the store keeps nothing, so the
  // second run rebuilds.
  ASSERT_TRUE(common::SetFailpoint("cache.insert", "oom").ok());
  options.shared_base_cache = std::make_shared<storage::BaseHistogramCache>();
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    auto degraded = recommender->Recommend(options);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    // Identical recommendation; only the cost accounting may differ.
    ASSERT_EQ(degraded->views.size(), baseline->views.size());
    for (size_t i = 0; i < baseline->views.size(); ++i) {
      EXPECT_EQ(degraded->views[i].view.Key(),
                baseline->views[i].view.Key());
      EXPECT_EQ(degraded->views[i].bins, baseline->views[i].bins);
      EXPECT_EQ(degraded->views[i].utility, baseline->views[i].utility);
    }
    EXPECT_GT(degraded->stats.base_builds, 0);
    EXPECT_FALSE(degraded->stats.completeness.degraded);
  }
}

// --- fused_scan.morsel ---

TEST_F(FaultInjectionTest, FusedScanFaultAbortsPassWithIoError) {
  const data::Dataset ds = data::MakeToyDataset();
  ASSERT_TRUE(common::SetFailpoint("fused_scan.morsel", "error").ok());
  std::vector<storage::FusedScanPair> pairs{{"x", "m1"}};
  auto result = storage::FusedBuildBaseHistograms(
      *ds.table, ds.target_rows, pairs, /*pool=*/nullptr,
      /*morsel_size=*/8, /*stats=*/nullptr, /*scratch=*/nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(FaultInjectionTest, FusedScanFaultCachesNothing) {
  const data::Dataset ds = data::MakeToyDataset();
  ASSERT_TRUE(common::SetFailpoint("fused_scan.morsel", "error").ok());
  storage::BaseHistogramCache cache;
  storage::BaseHistogramCache::FusedHistogramBuildRequest request;
  request.rows = &ds.target_rows;
  request.pairs.push_back({"t|x|m1", "x", "m1"});
  request.pairs.push_back({"t|x|m2", "x", "m2"});
  request.morsel_size = 8;
  auto status = cache.FusedBuild(*ds.table, request, nullptr, nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // A partially-scanned pass must never leave half-built histograms
  // behind.
  EXPECT_FALSE(cache.Contains("t|x|m1"));
  EXPECT_FALSE(cache.Contains("t|x|m2"));
}

TEST_F(FaultInjectionTest, PersistentFusedScanFaultFailsRecommendTyped) {
  // With the scan engine persistently failing, even the direct fallback
  // builds fail; Recommend must surface the typed I/O error — not abort,
  // not mask it as kInternal.
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  ASSERT_TRUE(common::SetFailpoint("fused_scan.morsel", "error").ok());
  for (const int threads : {1, 4}) {
    core::SearchOptions options;
    options.num_threads = threads;
    auto run = recommender->Recommend(options);
    ASSERT_FALSE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kIoError)
        << "threads=" << threads << ": " << run.status().ToString();
  }
}

TEST_F(FaultInjectionTest, SlowMorselsTripDeadlineIntoDegradedRun) {
  // delay(...) models a slow device: the scan itself succeeds, but a
  // tight deadline expires during the prewarm pass and the search
  // degrades instead of blocking.
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  ASSERT_TRUE(common::SetFailpoint("fused_scan.morsel", "delay(30ms)").ok());
  core::SearchOptions options;
  options.deadline_ms = 5.0;
  auto run = recommender->Recommend(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->stats.completeness.degraded);
  EXPECT_EQ(run->stats.completeness.status, StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, FusedScanOomActsLikeError) {
  const data::Dataset ds = data::MakeToyDataset();
  ASSERT_TRUE(common::SetFailpoint("fused_scan.morsel", "oom").ok());
  std::vector<storage::FusedScanPair> pairs{{"x", "m1"}};
  auto result = storage::FusedBuildBaseHistograms(
      *ds.table, ds.target_rows, pairs, /*pool=*/nullptr,
      /*morsel_size=*/8, /*stats=*/nullptr, /*scratch=*/nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// --- thread_pool.task ---

TEST_F(FaultInjectionTest, ThreadPoolTaskThrowSurfacesOnCaller) {
  ASSERT_TRUE(common::SetFailpoint("thread_pool.task", "throw").ok());
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(8, [](size_t, size_t) {}),
               common::FailpointError);
  // The pool survives; the next (clean) round runs normally.
  common::ClearFailpoints();
  std::atomic<int> ran{0};
  pool.ParallelFor(8, [&](size_t, size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST_F(FaultInjectionTest, ThreadPoolTaskThrowInlinePath) {
  ASSERT_TRUE(common::SetFailpoint("thread_pool.task", "throw").ok());
  common::ThreadPool pool(1);  // inline path must mirror the N-thread one
  EXPECT_THROW(pool.ParallelFor(4, [](size_t, size_t) {}),
               common::FailpointError);
}

TEST_F(FaultInjectionTest, WorkerFaultFailsRecommendGracefully) {
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  ASSERT_TRUE(common::SetFailpoint("thread_pool.task", "throw").ok());
  core::SearchOptions options;
  options.num_threads = 4;
  auto run = recommender->Recommend(options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("thread_pool.task"),
            std::string::npos)
      << run.status().ToString();
  // The recommender remains usable after the fault clears.
  common::ClearFailpoints();
  auto retry = recommender->Recommend(options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->views.empty());
}

// --- combined / config surface ---

TEST_F(FaultInjectionTest, EnvStyleConfigDrivesMultipleSites) {
  ASSERT_TRUE(common::ConfigureFailpointsFromString(
                  "csv.read=error;cache.insert=oom")
                  .ok());
  const std::string path = WriteTempCsv("fault_csv_multi.csv");
  EXPECT_FALSE(storage::ReadCsvFile(path).ok());
  const data::Dataset ds = data::MakeToyDataset();
  storage::BaseHistogramCache cache;
  auto result =
      testutil::FetchOne(cache, "k", *ds.table, ds.target_rows, "x", "m1");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(cache.Contains("k"));
}

TEST_F(FaultInjectionTest, CacheOomUnderParallelSearchStaysExact) {
  // OOM-degraded caching with a parallel MuVE-MuVE run: utilities must
  // match the serial, fault-free baseline exactly.
  const data::Dataset ds = data::MakeToyDataset();
  auto recommender = core::Recommender::Create(ds);
  ASSERT_TRUE(recommender.ok());
  core::SearchOptions options;
  options.horizontal = core::HorizontalStrategy::kMuve;
  options.vertical = core::VerticalStrategy::kMuve;
  auto baseline = recommender->Recommend(options);
  ASSERT_TRUE(baseline.ok());

  ASSERT_TRUE(common::SetFailpoint("cache.insert", "oom").ok());
  options.num_threads = 4;
  auto faulted = recommender->Recommend(options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  ASSERT_EQ(faulted->views.size(), baseline->views.size());
  for (size_t i = 0; i < baseline->views.size(); ++i) {
    EXPECT_EQ(faulted->views[i].utility, baseline->views[i].utility)
        << "rank " << i;
  }
}

}  // namespace
}  // namespace muve
