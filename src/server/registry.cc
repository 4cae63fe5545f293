#include "server/registry.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "storage/predicate.h"

namespace muve::server {

namespace {

using common::Result;
using common::Status;

// dataset \x01 epoch \x01 canonical-predicate: data_epoch keys registry
// entries and cached results.
std::string EpochKey(const std::string& dataset, uint64_t epoch,
                     const std::string& canonical) {
  return dataset + '\x01' + std::to_string(epoch) + '\x01' + canonical;
}

// dataset \x01 base_epoch \x01: the comparison prefix of a table version
// line in the base store.  Every base of the table starts with
// `dataset \x01`; a predicate's target prefix appends
// `canonical \x01`.
std::string ComparisonPrefix(const std::string& dataset,
                             uint64_t base_epoch) {
  return dataset + '\x01' + std::to_string(base_epoch) + '\x01';
}

// The first record count that sweeps unused predicate records.
constexpr size_t kMinPredicateSweep = 64;

}  // namespace

Registry::Registry(Options options)
    : options_(options),
      bases_(std::make_shared<storage::BaseHistogramCache>(
          storage::BaseHistogramCache::Options{options.base_cache_bytes})),
      sweep_at_(kMinPredicateSweep) {}

Status Registry::Create(const std::string& name, storage::Table table,
                        data::Workload workload) {
  std::lock_guard<std::mutex> lock(mu_);
  MUVE_RETURN_IF_ERROR(catalog_.Create(name, std::move(table)));
  workloads_[name] = std::move(workload);
  return Status::OK();
}

Status Registry::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MUVE_RETURN_IF_ERROR(catalog_.Drop(name));
  workloads_.erase(name);
  PurgeLocked(name, /*keep_bases=*/false);
  return Status::OK();
}

Result<uint64_t> Registry::Invalidate(const std::string& name) {
  // The epochs bump and the derived state goes in one critical section:
  // a cold build finishing later sees a base_epoch that is no longer
  // current and builds into a private store.  In-flight requests finish on
  // their old snapshot; anything they cache lands under dead keys.
  std::lock_guard<std::mutex> lock(mu_);
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot bumped,
                        catalog_.Invalidate(name));
  PurgeLocked(name, /*keep_bases=*/false);
  return bumped.data_epoch;
}

void Registry::PurgeLocked(const std::string& dataset, bool keep_bases) {
  std::erase_if(entries_,
                [&](const Entry& entry) { return entry.dataset == dataset; });
  const std::string prefix = dataset + '\x01';
  for (auto it = results_.begin(); it != results_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      results_lru_.erase(it->second.lru_it);
      it = results_.erase(it);
    } else {
      ++it;
    }
  }
  if (keep_bases) return;
  std::erase_if(predicates_, [&](const auto& keyed) {
    return keyed.second.dataset == dataset;
  });
  bases_->ErasePrefix(prefix);
}

void Registry::DropUnusedPredicatesLocked() {
  // A resident entry's build may still be filling its target bases.
  std::unordered_set<std::string_view> resident;
  for (const Entry& entry : entries_) {
    resident.insert(entry.base_cache.target_prefix);
  }
  std::erase_if(predicates_, [&](const auto& keyed) {
    const auto& [prefix, record] = keyed;
    if (resident.count(prefix) != 0) return false;
    const auto workload = workloads_.find(record.dataset);
    if (workload == workloads_.end()) return true;
    for (const std::string& dimension : workload->second.dimensions) {
      for (const std::string& measure : workload->second.measures) {
        if (bases_->Contains(prefix + storage::BaseHistogramKey(
                                          /*target_side=*/true, dimension,
                                          measure))) {
          return false;
        }
      }
    }
    return true;
  });
}

Result<Registry::AppendOutcome> Registry::Append(const std::string& name,
                                                 const std::string& csv) {
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                        catalog_.Get(name));
  // The appended rows must arrive under the table's own schema — header
  // names and cell types are enforced, not re-inferred.
  storage::CsvOptions csv_options;
  csv_options.schema = snap.table->schema();
  storage::CsvLoadStats load_stats;
  MUVE_ASSIGN_OR_RETURN(const storage::Table rows,
                        storage::ReadCsvString(csv, csv_options, &load_stats));
  if (rows.num_rows() == 0) {
    return Status::InvalidArgument("append: csv has no rows");
  }
  common::Stopwatch append_timer;
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::AppendResult appended,
                        catalog_.Append(name, rows));
  AppendOutcome outcome;
  outcome.csv_parse_ms = load_stats.parse_ms;
  outcome.catalog_append_ms = append_timer.ElapsedMillis();
  outcome.rows_appended = static_cast<int64_t>(appended.rows_appended);
  outcome.rows_copied = static_cast<int64_t>(appended.rows_copied);

  // data_epoch-keyed state is stale now; the bases stay, because they
  // are patched below under the preserved base_epoch.
  const std::string comparison_prefix =
      ComparisonPrefix(name, appended.snapshot.base_epoch);
  data::Workload workload;
  std::vector<std::pair<std::string, std::shared_ptr<const storage::Predicate>>>
      targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PurgeLocked(name, /*keep_bases=*/true);
    auto it = workloads_.find(name);
    // A racing drop leaves nothing to patch.
    if (it == workloads_.end()) return outcome;
    workload = it->second;
    for (const auto& [prefix, record] : predicates_) {
      if (prefix.starts_with(comparison_prefix)) {
        targets.emplace_back(prefix, record.target);
      }
    }
  }
  outcome.patched = true;
  outcome.rows_total =
      static_cast<int64_t>(appended.snapshot.table->num_rows());
  outcome.data_epoch = appended.snapshot.data_epoch;

  common::Stopwatch delta_timer;
  storage::IngestDeltaRequest delta;
  delta.table = appended.snapshot.table.get();
  delta.rows_before = appended.rows_before;
  delta.rows_appended = appended.rows_appended;
  delta.dimensions = workload.dimensions;
  delta.measures = workload.measures;
  delta.cache = bases_.get();
  // The comparison side once, whatever the number of predicates.  A
  // failed patch may leave patched and unpatched bases side by side, so
  // they go wholesale (the table version's target bases with them) —
  // the next recommend rebuilds cold and correct.
  delta.key_prefix = comparison_prefix;
  if (!storage::ApplyAppendDeltas(delta, &outcome.ingest).ok()) {
    bases_->ErasePrefix(comparison_prefix);
  }
  // Then each predicate's target side; no comparison base lives under a
  // target prefix, so these calls scan only rows their predicate holds.
  for (const auto& [prefix, target] : targets) {
    delta.key_prefix = prefix;
    delta.target_predicate = target.get();
    if (!storage::ApplyAppendDeltas(delta, &outcome.ingest).ok()) {
      bases_->ErasePrefix(prefix);
    }
  }
  outcome.delta_ms = delta_timer.ElapsedMillis();
  return outcome;
}

Result<Registry::Entry> Registry::Resolve(const std::string& dataset,
                                          const std::string& predicate) {
  // Resolve the table FIRST, so the diagnostic for an unknown name
  // matches what a predicate-free request would get.
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                        catalog_.Get(dataset));
  // Entries key on the canonical predicate, so operand-permuted
  // spellings of one WHERE clause share a recommender and its caches.
  // "" (the table's default workload) keys as the empty canonical.
  std::string canonical;
  if (!predicate.empty()) {
    MUVE_ASSIGN_OR_RETURN(const storage::PredicatePtr where,
                          sql::ParseWhere(predicate));
    canonical = storage::CanonicalPredicateKey(*where);
  }
  Entry entry;
  entry.key = EpochKey(dataset, snap.data_epoch, canonical);
  entry.dataset = dataset;
  data::Workload workload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& existing : entries_) {
      if (existing.key == entry.key) return existing;
    }
    auto it = workloads_.find(dataset);
    if (it == workloads_.end()) {  // dropped since the snapshot
      return Status::NotFound("no table named '" + dataset + "'");
    }
    workload = it->second;
  }

  // Cold build, outside the lock: it must not block a concurrent
  // session's hit.  Two sessions racing one cold key both build; the
  // first insert wins and the loser adopts it.  A `registry.build` delay
  // holds a build here, after its snapshot was read.
  (void)MUVE_FAILPOINT("registry.build");
  const std::string effective_predicate =
      predicate.empty() ? workload.default_predicate : predicate;
  if (effective_predicate.empty()) {
    return Status::InvalidArgument(
        "table '" + dataset +
        "' has no default predicate; pass \"predicate\"");
  }
  MUVE_ASSIGN_OR_RETURN(
      data::Dataset base,
      data::Bind(predicate.empty() ? dataset : dataset + " WHERE " + predicate,
                 snap.table, workload, effective_predicate));
  MUVE_ASSIGN_OR_RETURN(core::Recommender built,
                        core::Recommender::Create(std::move(base)));
  entry.recommender =
      std::make_shared<const core::Recommender>(std::move(built));

  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& existing : entries_) {
    if (existing.key == entry.key) return existing;  // lost the race
  }
  // An invalidate or drop since the snapshot retired this base_epoch:
  // its bases are gone and no later request can reach new ones, so this
  // request builds into a private store and registers nothing.
  auto current = catalog_.Get(dataset);
  if (!current.ok() || current->base_epoch != snap.base_epoch) {
    entry.base_cache = std::make_shared<storage::BaseHistogramCache>();
    return entry;
  }
  // Keyed under base_epoch, not data_epoch: an append retires the entry
  // but not its bases, so the rebuilt entry reads the patched ones.  A
  // new record binds its target predicate once, for every append.
  std::string comparison_prefix = ComparisonPrefix(dataset, snap.base_epoch);
  std::string target_prefix = comparison_prefix + canonical + '\x01';
  if (predicates_.count(target_prefix) == 0) {
    MUVE_ASSIGN_OR_RETURN(storage::PredicatePtr where,
                          sql::ParseWhere(effective_predicate));
    MUVE_RETURN_IF_ERROR(where->Bind(snap.table->schema()));
    if (predicates_.size() >= sweep_at_) {
      DropUnusedPredicatesLocked();
      sweep_at_ = std::max(kMinPredicateSweep, 2 * predicates_.size());
    }
    predicates_.emplace(target_prefix,
                        PredicateRecord{dataset, std::move(where)});
  }
  entry.base_cache = storage::BaseCacheHandle(
      bases_, std::move(target_prefix), std::move(comparison_prefix));
  entries_.push_back(entry);
  if (entries_.size() > options_.max_recommenders) {
    entries_.erase(entries_.begin());  // oldest first
  }
  return entry;
}

std::string Registry::ResultKey(const Entry& entry,
                                const core::SearchOptions& options, int64_t k,
                                int64_t threads) {
  // Session defaults are resolved before this point, so two sessions
  // with different spellings of one request share a key.
  char weights[128];
  std::snprintf(weights, sizeof(weights), "%.17g,%.17g,%.17g",
                options.weights.deviation, options.weights.accuracy,
                options.weights.usability);
  std::string key = entry.key;
  for (const std::string& part : std::initializer_list<std::string>{
           options.SchemeName(), std::to_string(k), weights,
        std::to_string(static_cast<int>(options.distance)),
        std::to_string(static_cast<int>(options.probe_order)),
        std::to_string(threads)}) {
    key += '\x01';
    key += part;
  }
  return key;
}

bool Registry::LookupResult(const std::string& key, JsonValue* response) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(key);
  if (it == results_.end()) return false;
  results_lru_.splice(results_lru_.begin(), results_lru_, it->second.lru_it);
  *response = it->second.response;
  return true;
}

bool Registry::StoreResult(const std::string& key, const JsonValue& response) {
  if (!caches_results()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (results_.count(key) != 0) return false;  // racers agree anyway
  results_lru_.push_front(key);
  results_.emplace(key, CachedResponse{response, results_lru_.begin()});
  while (results_.size() > options_.result_cache_entries) {
    results_.erase(results_lru_.back());
    results_lru_.pop_back();
  }
  return true;
}

Registry::Stats Registry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.entries = entries_.size();
  out.predicates = predicates_.size();
  out.results = results_.size();
  out.base_cache = bases_->TotalStats();
  out.base_cache_max_bytes = bases_->max_bytes();
  return out;
}

}  // namespace muve::server
