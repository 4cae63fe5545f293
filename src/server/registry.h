// muved's cross-request state (DESIGN.md §13): everything the server
// reuses from one request to the next lives here, behind one mutex.
//
//   * the catalog of tables and each table's exploration workload;
//   * the recommender registry: one Recommender per (dataset, data_epoch,
//     canonical predicate), at most `max_recommenders` resident, evicted
//     oldest first;
//   * the base-histogram stores: one BaseHistogramCache per (dataset,
//     base_epoch, canonical predicate), shared by every registry entry of
//     that key.  Appends preserve base_epoch, so a store outlives the
//     registry entries an append retires and is delta-patched instead;
//   * the result cache: an LRU of canonical recommend responses;
//   * the append path that publishes rows and patches the stores.
//
// This file is the only code that composes the epoch-qualified key
// `dataset \x01 epoch \x01 canonical-predicate`.  Recommender and base
// builds run outside the lock; a store is adopted or created only while
// its base_epoch is still the table's current one, checked under the
// lock, so a build racing an `invalidate` or `drop` cannot leave a store
// behind under a dead epoch.  Appends are serialized by their own lock,
// so delta patches land in publish order.

#ifndef MUVE_SERVER_REGISTRY_H_
#define MUVE_SERVER_REGISTRY_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"
#include "core/search_options.h"
#include "data/dataset.h"
#include "server/json.h"
#include "storage/base_histogram_cache.h"
#include "storage/catalog.h"
#include "storage/ingest.h"

namespace muve::server {

class Registry {
 public:
  struct Options {
    size_t max_recommenders = 32;
    size_t result_cache_entries = 256;  // 0 = no result cache
  };

  // One resolved (dataset, data_epoch, canonical predicate): the shared
  // recommender and the store its requests build base histograms into.
  struct Entry {
    std::string key;  // dataset \x01 data_epoch \x01 canonical predicate
    std::string dataset;
    std::shared_ptr<const core::Recommender> recommender;
    std::shared_ptr<storage::BaseHistogramCache> base_cache;
  };

  struct AppendOutcome {
    int64_t rows_appended = 0;
    // Wall time of the three ingest steps: parsing the CSV, publishing
    // the next catalog version, delta-patching the stores (0 when not
    // patched).
    double csv_parse_ms = 0.0;
    double catalog_append_ms = 0.0;
    double delta_ms = 0.0;
    // Rows the catalog append moved into new tail stores
    // (Catalog::AppendResult::rows_copied).
    int64_t rows_copied = 0;
    // False when a racing `drop` removed the table between the publish
    // and the patch: nothing was patched and the fields below are unset.
    bool patched = false;
    int64_t rows_total = 0;
    uint64_t data_epoch = 0;
    storage::IngestDeltaStats ingest;
  };

  struct Stats {
    size_t entries = 0;  // resident registry entries
    size_t stores = 0;   // base-histogram stores held
    storage::BaseHistogramCache::CacheStats base_cache;  // summed over stores
    size_t results = 0;  // cached responses
  };

  explicit Registry(Options options);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Adds `table` to the catalog under `name` with its workload.  A
  // workload without a default predicate makes recommends pass one.
  common::Status Create(const std::string& name, storage::Table table,
                        data::Workload workload);

  // Removes `name` and everything derived from it.
  common::Status Drop(const std::string& name);

  // Bumps the table's data_epoch and base_epoch and drops everything
  // derived from it, stores included.  Returns the new data_epoch.
  common::Result<uint64_t> Invalidate(const std::string& name);

  // Parses `csv` under the table's schema, appends it, retires the
  // table's registry entries and cached results, and delta-patches its
  // base-histogram stores with the new rows.
  common::Result<AppendOutcome> Append(const std::string& name,
                                       const std::string& csv);

  // Returns (building on first use) the recommender for `dataset`
  // filtered by `predicate` ("" = the table's default predicate).
  // Operand-permuted spellings of one WHERE clause share an entry.
  common::Result<Entry> Resolve(const std::string& dataset,
                                const std::string& predicate);

  // The result-cache key of a recommend on `entry`: the entry's key plus
  // every resolved parameter that can shape the response body.
  static std::string ResultKey(const Entry& entry,
                               const core::SearchOptions& options, int64_t k,
                               int64_t threads);

  bool caches_results() const { return options_.result_cache_entries > 0; }

  // Result cache.  StoreResult returns false when an entry already held
  // the key (first store wins).
  bool LookupResult(const std::string& key, JsonValue* response);
  bool StoreResult(const std::string& key, const JsonValue& response);

  Stats stats() const;

  const storage::Catalog& catalog() const { return catalog_; }

 private:
  struct Store {
    std::string dataset;
    // The target predicate, bound to the table's schema when the store
    // was created; appends keep the schema, so the binding stays valid.
    std::shared_ptr<const storage::Predicate> target_predicate;
    std::shared_ptr<storage::BaseHistogramCache> cache;
  };
  struct CachedResponse {
    JsonValue response;
    std::list<std::string>::iterator lru_it;
  };

  // Drops `dataset`'s registry entries and cached results, and its
  // stores unless `keep_stores`.  Requires mu_.
  void PurgeLocked(const std::string& dataset, bool keep_stores);

  const Options options_;

  // Tables and their MVCC snapshots; the catalog has its own lock.
  storage::Catalog catalog_;

  // Serializes appends: publish and patch form one unit.
  std::mutex ingest_mu_;

  // Guards everything below.
  mutable std::mutex mu_;
  std::unordered_map<std::string, data::Workload> workloads_;
  std::vector<Entry> entries_;  // insertion order = eviction order
  // Keyed dataset \x01 base_epoch \x01 canonical predicate.
  std::unordered_map<std::string, Store> stores_;
  std::list<std::string> results_lru_;  // front = most recently used
  std::unordered_map<std::string, CachedResponse> results_;
};

}  // namespace muve::server

#endif  // MUVE_SERVER_REGISTRY_H_
