// SelectionCache unit tests (storage/selection_cache.h): LRU behavior,
// first-insert-wins, byte-budget eviction (oversized selections
// included), and the stats contract the cross-query differential suite
// leans on: hits + misses == lookups.

#include "storage/selection_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace muve::storage {
namespace {

std::shared_ptr<const RowSet> Rows(std::initializer_list<uint32_t> rows) {
  return std::make_shared<const RowSet>(rows);
}

TEST(SelectionCacheTest, MissThenHit) {
  SelectionCache cache;
  EXPECT_EQ(cache.Get("k"), nullptr);
  cache.Put("k", Rows({1, 2, 3}));
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (RowSet{1, 2, 3}));
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(SelectionCacheTest, FirstInsertWins) {
  SelectionCache cache;
  cache.Put("k", Rows({1}));
  cache.Put("k", Rows({9, 9, 9}));
  auto hit = cache.Get("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (RowSet{1}));
  EXPECT_EQ(cache.TotalStats().insertions, 1);
}

TEST(SelectionCacheTest, EntriesOutliveEviction) {
  // Tiny budget on one shard: inserting a second entry evicts the first,
  // but an outstanding shared_ptr stays valid.
  SelectionCache::Options options;
  options.max_bytes = 256;
  options.num_shards = 1;
  SelectionCache cache(options);
  cache.Put("a", Rows({1, 2, 3, 4, 5, 6, 7, 8}));
  auto held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  // Each fits the budget alone but not beside another: every insert
  // evicts its predecessor.
  for (int i = 0; i < 8; ++i) {
    auto big = std::make_shared<RowSet>(48, static_cast<uint32_t>(i));
    cache.Put("b" + std::to_string(i),
              std::shared_ptr<const RowSet>(std::move(big)));
  }
  EXPECT_GT(cache.TotalStats().evictions, 0);
  EXPECT_EQ(*held, (RowSet{1, 2, 3, 4, 5, 6, 7, 8}));  // still intact
}

TEST(SelectionCacheTest, OversizedPutsStayWithinBudget) {
  // Every selection here is larger than a shard's 256-byte share of the
  // budget.  None may be retained, whichever shards the keys hash to,
  // while a selection that fits is still cached beside them.
  SelectionCache::Options options;
  options.max_bytes = 1024;
  options.num_shards = 4;
  SelectionCache cache(options);
  std::vector<std::shared_ptr<const RowSet>> held;
  for (int i = 0; i < 32; ++i) {
    held.push_back(std::make_shared<const RowSet>(100, uint32_t{1}));
    cache.Put("big" + std::to_string(i), held.back());
    const auto stats = cache.TotalStats();
    ASSERT_LE(stats.bytes, static_cast<int64_t>(cache.max_bytes()))
        << "after put " << i;
  }
  EXPECT_EQ(cache.Get("big0"), nullptr);
  EXPECT_EQ(cache.TotalStats().insertions, 0);
  EXPECT_EQ(cache.TotalStats().evictions, 32);
  EXPECT_EQ(held.front()->size(), 100u);  // the caller keeps its rows
  cache.Put("small", Rows({1, 2, 3}));
  EXPECT_NE(cache.Get("small"), nullptr);
  EXPECT_LE(cache.TotalStats().bytes,
            static_cast<int64_t>(cache.max_bytes()));
}

TEST(SelectionCacheTest, LruPrefersRecentlyUsed) {
  SelectionCache::Options options;
  options.max_bytes = 500;  // room for ~2 of the entries below, 1 shard
  options.num_shards = 1;
  SelectionCache cache(options);
  auto entry = [] {
    return std::shared_ptr<const RowSet>(
        std::make_shared<RowSet>(48, uint32_t{7}));
  };
  cache.Put("a", entry());
  cache.Put("b", entry());
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh a: b is now LRU-back
  cache.Put("c", entry());             // evicts b, not a
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

TEST(SelectionCacheTest, ClearDropsEverything) {
  SelectionCache cache;
  cache.Put("a", Rows({1}));
  cache.Put("b", Rows({2}));
  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.TotalStats().bytes, 0);
}

TEST(SelectionCacheTest, StatsContractUnderConcurrency) {
  // The pinned invariant: hits + misses == lookups, exactly, no matter
  // how many threads race Get/Put on overlapping keys.
  SelectionCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 16);
        if (cache.Get(key) == nullptr) {
          cache.Put(key, Rows({static_cast<uint32_t>(i)}));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.lookups, int64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace muve::storage
