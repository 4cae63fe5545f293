// Cross-query differential suite: the tentpole proof that the sharing
// layers (DESIGN.md §13) are semantically invisible.
//
// For fuzzed (predicate, scheme, alphas, k) configurations the SAME
// recommendation request runs four ways —
//   1. isolated:  per-request cache (the pre-sharing path);
//   2. shared:    one cross-request BaseHistogramCache reused warm across
//                 every request on the entry;
//   3. one store: every predicate in one store, sharing the comparison
//                 side under one key prefix (muved's shape);
//   4. shared x8: eight concurrent requests racing the same cold shared
//                 store —
// and the returned top-k must be BIT-identical across all of them (exact
// double bit patterns, not EXPECT_NEAR).  ExecStats are deliberately NOT
// compared: with a shared store they are history-dependent by design.
//
// Also pinned here: the cache's stats contract hits + misses == lookups,
// exact under concurrency, and that probes read pinned bases, not the
// store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.h"
#include "core/search_options.h"
#include "data/nba.h"
#include "data/toy.h"
#include "direct_oracle.h"
#include "fuzz_util.h"
#include "sql/parser.h"
#include "storage/base_histogram_cache.h"
#include "storage/predicate.h"

namespace muve::core {
namespace {

using muve::testutil::FuzzSeed;
using muve::testutil::FuzzTrace;

// Toy-schema predicates that select different, non-empty row subsets.
constexpr const char* kPredicates[] = {
    nullptr,  // the dataset's built-in analyst predicate
    "x >= 2",
    "x >= 2 AND m1 > 0",
    "m1 > 0 AND x >= 2",  // operand-permuted twin of the above
    "y <= 6 OR x = 1",
};

data::Dataset MakeFilteredToy(const char* predicate) {
  data::Dataset ds = data::MakeToyDataset();
  if (predicate == nullptr) return ds;
  auto stmt = sql::ParseSelect(std::string("SELECT * FROM t WHERE ") +
                               predicate);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto rows = storage::Filter(*ds.table, stmt->where.get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->empty()) << "useless fuzz predicate: " << predicate;
  ds.target_rows = *rows;
  ds.query_predicate_sql = predicate;
  return ds;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void AssertViewsBitIdentical(const Recommendation& expected,
                             const Recommendation& actual,
                             const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(expected.views.size(), actual.views.size());
  for (size_t i = 0; i < expected.views.size(); ++i) {
    const ScoredView& e = expected.views[i];
    const ScoredView& a = actual.views[i];
    EXPECT_EQ(e.view.dimension, a.view.dimension) << "rank " << i;
    EXPECT_EQ(e.view.measure, a.view.measure) << "rank " << i;
    EXPECT_EQ(e.view.function, a.view.function) << "rank " << i;
    EXPECT_EQ(e.bins, a.bins) << "rank " << i;
    EXPECT_TRUE(SameBits(e.utility, a.utility))
        << "rank " << i << ": " << e.utility << " vs " << a.utility;
    EXPECT_TRUE(SameBits(e.deviation, a.deviation)) << "rank " << i;
    EXPECT_TRUE(SameBits(e.accuracy, a.accuracy)) << "rank " << i;
    EXPECT_TRUE(SameBits(e.usability, a.usability)) << "rank " << i;
  }
}

SearchOptions DrawOptions(uint64_t seed) {
  std::mt19937_64 rng(seed);
  SearchOptions options;
  switch (rng() % 4) {
    case 0:
      options.horizontal = HorizontalStrategy::kLinear;
      options.vertical = VerticalStrategy::kLinear;
      break;
    case 1:
      options.horizontal = HorizontalStrategy::kHillClimbing;
      options.vertical = VerticalStrategy::kLinear;
      break;
    case 2:
      options.horizontal = HorizontalStrategy::kMuve;
      options.vertical = VerticalStrategy::kLinear;
      break;
    default:
      options.horizontal = HorizontalStrategy::kMuve;
      options.vertical = VerticalStrategy::kMuve;
      break;
  }
  const double d = static_cast<double>(rng() % 11) / 10.0;
  const double a = static_cast<double>(rng() % 11) / 10.0 * (1.0 - d);
  options.weights = Weights{d, a, std::max(0.0, 1.0 - d - a)};
  options.k = static_cast<int>(1 + rng() % 6);
  return options;
}

TEST(CrossQueryCacheTest, FuzzSharedCachesAreSemanticallyInvisible) {
  // One recommender + one long-lived shared store per predicate, reused
  // across every fuzz case that draws it — exactly the server's registry
  // shape, so later cases run against a WARM shared store.
  struct Entry {
    std::unique_ptr<Recommender> recommender;
    std::shared_ptr<storage::BaseHistogramCache> store;
  };
  std::vector<Entry> entries;
  for (const char* predicate : kPredicates) {
    auto rec = Recommender::Create(MakeFilteredToy(predicate));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    Entry entry;
    entry.recommender =
        std::make_unique<Recommender>(std::move(rec).value());
    entry.store = std::make_shared<storage::BaseHistogramCache>();
    entries.push_back(std::move(entry));
  }

  constexpr uint64_t kCases = 24;
  for (uint64_t i = 0; i < kCases; ++i) {
    const uint64_t seed = FuzzSeed(i);
    SCOPED_TRACE(FuzzTrace(i, seed));
    Entry& entry = entries[seed % (sizeof(kPredicates) /
                                   sizeof(kPredicates[0]))];
    const SearchOptions base = DrawOptions(seed);

    // 1. Isolated: a private per-run store.
    SearchOptions isolated = base;
    isolated.shared_base_cache = {};
    auto want = entry.recommender->Recommend(isolated);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // 2. Shared store (possibly warm from an earlier case).
    SearchOptions shared = base;
    shared.shared_base_cache = entry.store;
    auto got = entry.recommender->Recommend(shared);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    AssertViewsBitIdentical(*want, *got, "shared store, 1 request");

    // Stats contract on the shared store, exact.
    const auto stats = entry.store->TotalStats();
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  }
}

// muved's shape: ONE store for every predicate of a table, where all
// predicates read the same comparison (D_B) bases under one prefix and
// each keeps its target (D_Q) bases under its own.  Every predicate's
// answer stays bit-identical to an isolated run, and each comparison
// pair is built once for all of them.
TEST(CrossQueryCacheTest, FuzzPredicatesShareOneComparisonSide) {
  constexpr size_t kNumPredicates =
      sizeof(kPredicates) / sizeof(kPredicates[0]);
  auto store = std::make_shared<storage::BaseHistogramCache>();
  std::vector<std::unique_ptr<Recommender>> recommenders;
  for (const char* predicate : kPredicates) {
    auto rec = Recommender::Create(MakeFilteredToy(predicate));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    recommenders.push_back(
        std::make_unique<Recommender>(std::move(rec).value()));
  }

  constexpr uint64_t kCases = 24;
  for (uint64_t i = 0; i < kCases; ++i) {
    const uint64_t seed = FuzzSeed(i + 9000);
    SCOPED_TRACE(FuzzTrace(i, seed));
    const size_t which = seed % kNumPredicates;
    const Recommender& rec = *recommenders[which];
    const SearchOptions base = DrawOptions(seed);

    auto want = rec.Recommend(base);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    SearchOptions shared = base;
    shared.shared_base_cache = storage::BaseCacheHandle(
        store, "p" + std::to_string(which) + '\x01', "table\x01");
    auto got = rec.Recommend(shared);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    AssertViewsBitIdentical(*want, *got, "shared comparison side");
  }
  const auto stats = store->TotalStats();
  EXPECT_EQ(stats.comparison.builds,
            static_cast<int64_t>(recommenders[0]->space().base_pairs().size()));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(CrossQueryCacheTest, FuzzConcurrentRequestsOnOneColdStoreAgree) {
  constexpr uint64_t kCases = 6;
  constexpr int kThreads = 8;
  for (uint64_t i = 0; i < kCases; ++i) {
    const uint64_t seed = FuzzSeed(i + 5000);
    SCOPED_TRACE(FuzzTrace(i, seed));
    const char* predicate =
        kPredicates[seed % (sizeof(kPredicates) / sizeof(kPredicates[0]))];
    auto rec = Recommender::Create(MakeFilteredToy(predicate));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    const SearchOptions base = DrawOptions(seed);

    SearchOptions isolated = base;
    isolated.shared_base_cache = {};
    auto want = rec->Recommend(isolated);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // Eight requests race ONE cold shared store — the server's stampede
    // shape.  Every one must reproduce the isolated result bit-for-bit.
    auto store = std::make_shared<storage::BaseHistogramCache>();
    std::vector<common::Result<Recommendation>> results;
    results.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      results.push_back(common::Status::Internal("not run"));
    }
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        SearchOptions shared = base;
        shared.shared_base_cache = store;
        results[t] = rec->Recommend(shared);
      });
    }
    for (auto& t : threads) t.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
      AssertViewsBitIdentical(*want, *results[t], "concurrent shared");
    }
    const auto stats = store->TotalStats();
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  }
}

// The probe path does not read the store: every worker evaluator pins
// the bases it reads, so a run looks each pair up at most once per side
// per evaluator, plus once per side for the prewarm — not once per probe
// (about 10^5 lookups for NBA Linear-Linear when probes read the store).
TEST(CrossQueryCacheTest, ProbesReadPinnedBasesNotTheStore) {
  auto rec = Recommender::Create(data::MakeNbaDataset());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const int64_t pairs =
      static_cast<int64_t>(rec->space().base_pairs().size());
  ASSERT_GT(pairs, 0);

  SearchOptions linear;
  linear.horizontal = HorizontalStrategy::kLinear;
  linear.vertical = VerticalStrategy::kLinear;
  SearchOptions muve;
  muve.horizontal = HorizontalStrategy::kMuve;
  muve.vertical = VerticalStrategy::kMuve;
  const std::vector<ScoredView> want =
      testutil::DirectLinearLinear(rec->dataset(), rec->space(), linear)
          .views;

  for (const SearchOptions& scheme : {linear, muve}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(scheme.SchemeName() + " threads=" +
                   std::to_string(threads));
      SearchOptions options = scheme;
      options.num_threads = threads;
      options.shared_base_cache =
          std::make_shared<storage::BaseHistogramCache>();
      auto got = rec->Recommend(options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      ASSERT_EQ(got->views.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i));
        EXPECT_EQ(got->views[i].view.Key(), want[i].view.Key());
        EXPECT_EQ(got->views[i].bins, want[i].bins);
        // NBA measures are fractional: the base path re-associates sums.
        EXPECT_NEAR(got->views[i].utility, want[i].utility,
                    1e-9 * (1.0 + std::abs(want[i].utility)));
      }

      const auto stats = options.shared_base_cache.cache->TotalStats();
      EXPECT_LE(stats.lookups, 2 * pairs * (threads + 1));
      EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
    }
  }
}

}  // namespace
}  // namespace muve::core
