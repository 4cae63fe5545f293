// Predicate-keyed selection-vector cache: cross-request sharing of WHERE
// filtering work.
//
// `muved` sessions repeatedly ask for the same (dataset, predicate) row
// selections — same analyst query from many users, or the same predicate
// spelled with its AND/OR operands permuted.  Filtering is a full-table
// scan per request; this cache stores the resulting selection vector
// (storage::RowSet) keyed by the caller's composed string — by convention
// `<dataset> \x01 <epoch> \x01 CanonicalPredicateKey(pred)` — so the scan
// runs once per distinct selection per epoch and every later request
// copies the rows instead of rescanning.
//
// Epoch-based invalidation: the cache itself never inspects keys.  The
// owner (server/muved_server.cc) bumps a per-dataset epoch on any ingest
// or explicit invalidation, making stale entries unreachable; they age
// out through normal LRU eviction.
//
// Same concurrency shape as BaseHistogramCache: 16-way shard-locked LRU
// under a byte budget, entries immutable once inserted and handed out as
// shared_ptr<const>, so eviction never invalidates a selection a request
// is still consuming.  Unlike BaseHistogramCache there is no build-
// under-lock path — filtering needs the table and a bound predicate, so
// callers Get, scan on miss, then Put (first insert wins).
//
// Stats contract (pinned by tests/storage/selection_cache_test.cc):
// hits + misses == lookups, always.

#ifndef MUVE_STORAGE_SELECTION_CACHE_H_
#define MUVE_STORAGE_SELECTION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace muve::storage {

class SelectionCache {
 public:
  struct Options {
    // Total byte budget across shards.  Selection vectors are 4 bytes a
    // row, so the default holds ~2M cached selected rows.
    size_t max_bytes = size_t{8} << 20;  // 8 MiB
    size_t num_shards = 16;
  };

  struct Stats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t bytes = 0;  // currently retained
  };

  // Two overloads instead of one defaulted argument (same reason as
  // BaseHistogramCache: the nested struct is incomplete at the point a
  // `= Options()` default would be evaluated).
  SelectionCache();
  explicit SelectionCache(Options options);

  // The cached selection for `key`, or nullptr.  Counts one lookup and
  // one hit or miss; a hit refreshes LRU order.
  std::shared_ptr<const RowSet> Get(const std::string& key);

  // Inserts `rows` under `key`.  First insert wins: a concurrent filler
  // of the same key keeps the existing entry (both were filtered from
  // identical table state — the epoch in the key pins that).  A
  // selection larger than one shard's share of max_bytes is not
  // retained, so the cache never holds more than max_bytes.
  void Put(const std::string& key, std::shared_ptr<const RowSet> rows);

  // Drops every entry.  Outstanding shared_ptrs stay valid.
  void Clear();

  // Aggregated across shards.
  Stats TotalStats() const;

  size_t max_bytes() const { return options_.max_bytes; }

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used.
    std::list<std::string> lru;
    struct Entry {
      std::shared_ptr<const RowSet> rows;
      std::list<std::string>::iterator lru_it;
      size_t bytes = 0;
    };
    std::unordered_map<std::string, Entry> entries;
    size_t bytes = 0;
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  Options options_;
  size_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_SELECTION_CACHE_H_
