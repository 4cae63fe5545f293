#include "storage/selection_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace muve::storage {

namespace {

// Retained footprint of one entry: the row vector plus its key and the
// two map/list nodes referencing it.
size_t EntryBytes(const std::string& key, const RowSet& rows) {
  return rows.capacity() * sizeof(uint32_t) + 2 * key.size() +
         sizeof(SelectionCache::Options);  // node overhead, order-of
}

}  // namespace

SelectionCache::SelectionCache() : SelectionCache(Options()) {}

SelectionCache::SelectionCache(Options options) : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  per_shard_budget_ =
      std::max<size_t>(1, options_.max_bytes / options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SelectionCache::Shard& SelectionCache::ShardFor(const std::string& key) {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

const SelectionCache::Shard& SelectionCache::ShardFor(
    const std::string& key) const {
  const size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const RowSet> SelectionCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.lookups;
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.rows;
}

void SelectionCache::Put(const std::string& key,
                         std::shared_ptr<const RowSet> rows) {
  MUVE_CHECK(rows != nullptr);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.find(key) != shard.entries.end()) {
    return;  // first insert wins
  }
  const size_t bytes = EntryBytes(key, *rows);
  if (bytes > per_shard_budget_) {
    // Larger than the shard's whole share of the budget: not retained
    // (the caller still holds its rows), counted as evicted on arrival.
    ++shard.evictions;
    return;
  }
  shard.lru.push_front(key);
  Shard::Entry entry;
  entry.rows = std::move(rows);
  entry.lru_it = shard.lru.begin();
  entry.bytes = bytes;
  shard.entries.emplace(key, std::move(entry));
  shard.bytes += bytes;
  ++shard.insertions;

  // Per-shard LRU eviction under the byte budget.  The entry just
  // inserted (LRU front) fits on its own, so it is never the victim.
  while (shard.bytes > per_shard_budget_) {
    const std::string& victim_key = shard.lru.back();
    const auto victim = shard.entries.find(victim_key);
    MUVE_CHECK(victim != shard.entries.end());
    shard.bytes -= victim->second.bytes;
    shard.entries.erase(victim);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void SelectionCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

SelectionCache::Stats SelectionCache::TotalStats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.lookups += shard->lookups;
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.bytes += static_cast<int64_t>(shard->bytes);
  }
  return total;
}

}  // namespace muve::storage
