// Unit tests for the base-histogram prefix-sum cache: build correctness
// against the direct BinnedAggregate scan, coarsening across the whole
// bin-count domain, raw-series derivation, LRU eviction, and concurrent
// one-pair FusedBuild reads (runs under -L tsan).

#include "storage/base_histogram_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "base_build_util.h"
#include "storage/binned_group_by.h"
#include "storage/group_by.h"
#include "storage/table.h"

namespace muve::storage {
namespace {

using testutil::BuildOne;
using testutil::FetchOne;

Table MakeTable(uint64_t seed, int num_rows, int num_distinct,
                bool integer_measures) {
  Table table(Schema({{"d", ValueType::kInt64},
                      {"m", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dim(0, num_distinct - 1);
  std::uniform_real_distribution<double> mea(-50.0, 50.0);
  for (int i = 0; i < num_rows; ++i) {
    const double m = integer_measures ? std::floor(mea(rng)) : mea(rng);
    std::vector<Value> row = {Value(dim(rng)), Value(m), Value("x")};
    if (rng() % 17 == 0) row[1] = Value();  // sporadic NULL measures
    if (rng() % 23 == 0) row[0] = Value();  // sporadic NULL dimensions
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

TEST(BaseHistogramTest, ServableFunctions) {
  EXPECT_TRUE(BaseServableFunction(AggregateFunction::kSum));
  EXPECT_TRUE(BaseServableFunction(AggregateFunction::kCount));
  EXPECT_TRUE(BaseServableFunction(AggregateFunction::kAvg));
  EXPECT_TRUE(BaseServableFunction(AggregateFunction::kStd));
  EXPECT_TRUE(BaseServableFunction(AggregateFunction::kVar));
  EXPECT_FALSE(BaseServableFunction(AggregateFunction::kMin));
  EXPECT_FALSE(BaseServableFunction(AggregateFunction::kMax));
}

TEST(BaseHistogramTest, BuildErrorsMirrorBinnedAggregate) {
  Table table = MakeTable(1, 50, 8, true);
  EXPECT_FALSE(BuildOne(table, AllRows(50), "nope", "m").ok());
  EXPECT_FALSE(BuildOne(table, AllRows(50), "s", "m").ok());
  EXPECT_FALSE(BuildOne(table, AllRows(50), "d", "s").ok());
}

TEST(BaseHistogramTest, FineBinsAreSortedDistinct) {
  Table table = MakeTable(2, 300, 12, false);
  auto base = BuildOne(table, AllRows(300), "d", "m");
  ASSERT_TRUE(base.ok());
  for (size_t j = 1; j < base->num_fine_bins(); ++j) {
    EXPECT_LT(base->values[j - 1], base->values[j]);
  }
  EXPECT_EQ(base->prefix_counts.size(), base->num_fine_bins() + 1);
  EXPECT_EQ(base->source_rows, 300);
}

// The core exactness claim: coarsening the base histogram to ANY bin
// count over ANY range yields the same bins as the direct scan —
// bit-identical for COUNT and integer-measure SUM, FP-tolerant otherwise.
TEST(BaseHistogramTest, CoarsenMatchesDirectScanAllBinCounts) {
  for (const bool integral : {true, false}) {
    Table table = MakeTable(integral ? 3 : 4, 500, 20, integral);
    const RowSet rows = AllRows(500);
    auto base = BuildOne(table, rows, "d", "m");
    ASSERT_TRUE(base.ok());
    const double lo = 0.0, hi = 19.0;
    for (const auto function :
         {AggregateFunction::kSum, AggregateFunction::kCount,
          AggregateFunction::kAvg, AggregateFunction::kStd,
          AggregateFunction::kVar}) {
      for (int bins = 1; bins <= 40; ++bins) {
        auto direct = BinnedAggregate(table, rows, "d", "m", function,
                                      bins, lo, hi);
        ASSERT_TRUE(direct.ok());
        const BinnedResult derived =
            CoarsenBaseHistogram(*base, function, bins, lo, hi);
        ASSERT_EQ(derived.num_bins, direct->num_bins);
        for (int b = 0; b < bins; ++b) {
          // Row-to-bin assignment must match exactly in all cases.
          ASSERT_EQ(derived.row_counts[b], direct->row_counts[b])
              << "fn=" << AggregateName(function) << " bins=" << bins
              << " b=" << b;
          const double got = derived.aggregates[b];
          const double want = direct->aggregates[b];
          if (function == AggregateFunction::kCount ||
              (integral && function == AggregateFunction::kSum)) {
            ASSERT_EQ(got, want)
                << "fn=" << AggregateName(function) << " bins=" << bins
                << " b=" << b;
          } else {
            ASSERT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want)))
                << "fn=" << AggregateName(function) << " bins=" << bins
                << " b=" << b;
          }
        }
      }
    }
  }
}

// Coarsening with a range narrower than the data exercises BinIndexFor's
// clamping (out-of-range values land in the first/last bin).
TEST(BaseHistogramTest, CoarsenMatchesDirectScanWithClampedRange) {
  Table table = MakeTable(5, 400, 16, true);
  const RowSet rows = AllRows(400);
  auto base = BuildOne(table, rows, "d", "m");
  ASSERT_TRUE(base.ok());
  for (int bins : {1, 2, 3, 7}) {
    auto direct = BinnedAggregate(table, rows, "d", "m",
                                  AggregateFunction::kSum, bins, 4.0, 11.0);
    ASSERT_TRUE(direct.ok());
    const BinnedResult derived = CoarsenBaseHistogram(
        *base, AggregateFunction::kSum, bins, 4.0, 11.0);
    for (int b = 0; b < bins; ++b) {
      EXPECT_EQ(derived.row_counts[b], direct->row_counts[b]) << b;
      EXPECT_EQ(derived.aggregates[b], direct->aggregates[b]) << b;
    }
  }
}

TEST(BaseHistogramTest, RawSeriesMatchesGroupBy) {
  Table table = MakeTable(6, 350, 14, true);
  const RowSet rows = AllRows(350);
  auto base = BuildOne(table, rows, "d", "m");
  ASSERT_TRUE(base.ok());
  for (const auto function :
       {AggregateFunction::kSum, AggregateFunction::kCount,
        AggregateFunction::kAvg}) {
    auto grouped = GroupByAggregate(table, rows, "d", "m", function);
    ASSERT_TRUE(grouped.ok());
    std::vector<double> keys, aggregates;
    BaseRawSeries(*base, function, &keys, &aggregates);
    ASSERT_EQ(keys.size(), grouped->num_groups());
    for (size_t g = 0; g < keys.size(); ++g) {
      auto key = grouped->keys[g].ToDouble();
      ASSERT_TRUE(key.ok());
      EXPECT_EQ(keys[g], *key);
      // Integer measures, per-group row-order association: bit-exact.
      EXPECT_EQ(aggregates[g], grouped->aggregates[g])
          << "fn=" << AggregateName(function) << " g=" << g;
    }
  }
}

TEST(BaseHistogramCacheTest, HitAfterBuildAndStats) {
  Table table = MakeTable(7, 100, 10, true);
  const RowSet rows = AllRows(100);
  BaseHistogramCache cache;
  auto first = FetchOne(cache, "t|d|m", table, rows, "d", "m");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->built);
  auto second = FetchOne(cache, "t|d|m", table, rows, "d", "m");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->built);
  EXPECT_EQ(first->histogram.get(), second->histogram.get());
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(BaseHistogramCacheTest, BuilderErrorIsPropagatedAndNotCached) {
  Table table = MakeTable(8, 40, 6, true);
  const RowSet rows = AllRows(40);
  BaseHistogramCache cache;
  EXPECT_FALSE(FetchOne(cache, "k", table, rows, "d", "s").ok());
  EXPECT_FALSE(cache.Contains("k"));
  // A later good build under the same key still runs (nothing cached).
  auto ok = FetchOne(cache, "k", table, rows, "d", "m");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->built);
}

// An entry covering a different row count than the request's row set is
// another version: FusedBuild rebuilds it as a miss.  A build over more
// rows replaces the entry; one over fewer rows serves its caller only.
TEST(BaseHistogramCacheTest, EntryOfAnotherRowCountIsRebuilt) {
  Table table = MakeTable(13, 200, 10, true);
  BaseHistogramCache cache;
  ASSERT_TRUE(FetchOne(cache, "k", table, AllRows(150), "d", "m").ok());
  EXPECT_TRUE(cache.Contains("k", 150));
  EXPECT_FALSE(cache.Contains("k", 200));
  auto grown = FetchOne(cache, "k", table, AllRows(200), "d", "m");
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(grown->built);
  EXPECT_EQ(grown->histogram->source_rows, 200);
  EXPECT_TRUE(cache.Contains("k", 200));
  EXPECT_EQ(cache.TotalStats().builds, 2);

  auto older = FetchOne(cache, "k", table, AllRows(150), "d", "m");
  ASSERT_TRUE(older.ok());
  EXPECT_TRUE(older->built);
  EXPECT_EQ(older->histogram->source_rows, 150);
  EXPECT_TRUE(cache.Contains("k", 200));
  EXPECT_EQ(cache.TotalStats().builds, 2);
}

// Readers pinned to table versions v and v+1 alternate over one key (the
// thrash of a shared comparison base while an append lands).  The newer
// version is built once and then served; the older one is inserted at
// most once, before the newer one exists, and never displaces it.
// Exercised under -DMUVE_SANITIZE=thread via the tsan ctest label.
TEST(BaseHistogramCacheTest, OlderVersionNeverDisplacesNewerBase) {
  Table table = MakeTable(14, 600, 30, true);
  const RowSet older = AllRows(500);
  const RowSet newer = AllRows(600);
  BaseHistogramCache cache;
  constexpr int kReaders = 4;
  constexpr int kRounds = 20;
  std::atomic<int> newer_builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const bool read_newer = (t + round) % 2 == 1;
        auto entry = FetchOne(cache, "c|d|m", table,
                              read_newer ? newer : older, "d", "m");
        ASSERT_TRUE(entry.ok());
        EXPECT_EQ(entry->histogram->source_rows, read_newer ? 600 : 500);
        if (read_newer && entry->built) newer_builds.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(newer_builds.load(), 1);
  EXPECT_LE(cache.TotalStats().builds, 2);
  EXPECT_TRUE(cache.Contains("c|d|m", 600));
}

// The counters split by the side a request names, and the sides' bytes
// add up to the store's.
TEST(BaseHistogramCacheTest, StatsSplitBySide) {
  Table table = MakeTable(15, 120, 12, true);
  const RowSet rows = AllRows(120);
  BaseHistogramCache cache;
  for (const bool target_side : {true, false, false}) {
    BaseHistogramCache::FusedHistogramBuildRequest request;
    request.rows = &rows;
    request.pairs.push_back(
        {BaseHistogramKey(target_side, "d", "m"), "d", "m"});
    request.target_side = target_side;
    ASSERT_TRUE(cache.FusedBuild(table, request).ok());
  }
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.target.builds, 1);
  EXPECT_EQ(stats.target.hits, 0);
  EXPECT_EQ(stats.comparison.builds, 1);
  EXPECT_EQ(stats.comparison.hits, 1);
  EXPECT_GT(stats.target.bytes, 0);
  EXPECT_EQ(stats.target.bytes + stats.comparison.bytes, stats.bytes);
  EXPECT_EQ(cache.ErasePrefix("t|"), 1u);
  EXPECT_EQ(cache.TotalStats().target.bytes, 0);
  EXPECT_EQ(cache.TotalStats().comparison.bytes, cache.TotalStats().bytes);
}

TEST(BaseHistogramCacheTest, LruEvictionUnderByteBudget) {
  Table table = MakeTable(9, 2000, 400, false);
  const RowSet rows = AllRows(2000);
  auto probe = BuildOne(table, rows, "d", "m");
  ASSERT_TRUE(probe.ok());
  const size_t entry_bytes = probe->ApproxBytes();

  // Room for ~2 entries.
  BaseHistogramCache::Options options;
  options.max_bytes = entry_bytes * 2 + entry_bytes / 2;
  BaseHistogramCache cache(options);
  auto fetch = [&](const char* key) {
    return FetchOne(cache, key, table, rows, "d", "m");
  };
  auto a = fetch("a");
  auto b = fetch("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Touch "a" so "b" is the LRU victim when "c" lands.
  ASSERT_TRUE(fetch("a").ok());
  ASSERT_TRUE(fetch("c").ok());
  auto stats = cache.TotalStats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes, static_cast<int64_t>(options.max_bytes));
  // "a" survives (hit, no rebuild) while "b" rebuilds.
  auto again_a = fetch("a");
  ASSERT_TRUE(again_a.ok());
  EXPECT_FALSE(again_a->built);
  auto again_b = fetch("b");
  ASSERT_TRUE(again_b.ok());
  EXPECT_TRUE(again_b->built);
  // Evicted histograms handed out earlier stay valid (immutable entries).
  EXPECT_EQ(b->histogram->num_fine_bins(), probe->num_fine_bins());
}

TEST(BaseHistogramCacheTest, OversizedEntryStillServesItsProbe) {
  Table table = MakeTable(10, 1000, 300, false);
  const RowSet rows = AllRows(1000);
  BaseHistogramCache::Options options;
  options.max_bytes = 16;  // smaller than any histogram
  BaseHistogramCache cache(options);
  auto entry = FetchOne(cache, "big", table, rows, "d", "m");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->built);
  // The sole (just-inserted) entry is never evicted by its own insert.
  auto again = FetchOne(cache, "big", table, rows, "d", "m");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->built);
  // A second oversized entry evicts the first, never itself.
  ASSERT_TRUE(FetchOne(cache, "big2", table, rows, "d", "m").ok());
  EXPECT_TRUE(cache.Contains("big2"));
  EXPECT_FALSE(cache.Contains("big"));
  EXPECT_EQ(cache.TotalStats().evictions, 1);
}

TEST(BaseHistogramCacheTest, ClearForcesRebuild) {
  Table table = MakeTable(11, 60, 8, true);
  const RowSet rows = AllRows(60);
  BaseHistogramCache cache;
  ASSERT_TRUE(FetchOne(cache, "k", table, rows, "d", "m").ok());
  cache.Clear();
  EXPECT_EQ(cache.TotalStats().bytes, 0);
  auto rebuilt = FetchOne(cache, "k", table, rows, "d", "m");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->built);
}

// Many threads racing one-pair coalesced reads of overlapping keys: each
// key builds exactly once (a flight that is no longer registered has
// already inserted), and every thread reads the same histogram.
// Exercised under -DMUVE_SANITIZE=thread via the tsan ctest label.
TEST(BaseHistogramCacheTest, ConcurrentFusedBuildsBuildOncePerKey) {
  Table table = MakeTable(12, 800, 25, true);
  const RowSet rows = AllRows(800);
  BaseHistogramCache cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 5;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<const BaseHistogram*> seen(kThreads * kKeys, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = "key-" + std::to_string(k);
        auto entry = FetchOne(cache, key, table, rows, "d", "m");
        ASSERT_TRUE(entry.ok());
        if (entry->built) builds.fetch_add(1, std::memory_order_relaxed);
        seen[static_cast<size_t>(t * kKeys + k)] = entry->histogram.get();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), kKeys);
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.builds, kKeys);
  EXPECT_EQ(stats.hits, kThreads * kKeys - kKeys);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_EQ(seen[static_cast<size_t>(t * kKeys + k)],
                seen[static_cast<size_t>(k)]);
    }
  }
}

}  // namespace
}  // namespace muve::storage
