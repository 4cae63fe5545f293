#include "storage/base_histogram_cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/simd/aligned.h"
#include "common/simd/simd.h"
#include "storage/fused_scan.h"

namespace muve::storage {

size_t BaseHistogram::ApproxBytes() const {
  const size_t d = values.size();
  // Three double arrays of size d, three prefix arrays of size d + 1
  // (one int64, two double), plus the struct itself.
  return sizeof(BaseHistogram) + d * 3 * sizeof(double) +
         (d + 1) * (sizeof(int64_t) + 2 * sizeof(double));
}

bool BaseServableFunction(AggregateFunction function) {
  switch (function) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount:
    case AggregateFunction::kAvg:
    case AggregateFunction::kStd:
    case AggregateFunction::kVar:
      return true;
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return false;
  }
  return false;
}

double FinishFromMoments(AggregateFunction function, int64_t count, double sum,
                         double sum_sq) {
  // Conventions mirror AggregateAccumulator::Finish: empty groups are 0
  // for every function, and STD/VAR are 0 for fewer than two observations.
  if (count == 0) return 0.0;
  switch (function) {
    case AggregateFunction::kSum:
      return sum;
    case AggregateFunction::kCount:
      return static_cast<double>(count);
    case AggregateFunction::kAvg:
      return sum / static_cast<double>(count);
    case AggregateFunction::kStd:
    case AggregateFunction::kVar: {
      if (count < 2) return 0.0;
      const double n = static_cast<double>(count);
      const double mean = sum / n;
      // Population variance from raw moments; clamp against catastrophic
      // cancellation producing a tiny negative.
      double var = sum_sq / n - mean * mean;
      if (var < 0.0) var = 0.0;
      return function == AggregateFunction::kVar ? var : std::sqrt(var);
    }
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      break;
  }
  MUVE_CHECK(false) << "FinishFromMoments: unservable function";
  return 0.0;
}

BinnedResult CoarsenBaseHistogram(const BaseHistogram& base,
                                  AggregateFunction function, int num_bins,
                                  double lo, double hi) {
  MUVE_CHECK(num_bins >= 1);
  MUVE_CHECK(BaseServableFunction(function));

  BinnedResult out;
  out.lo = lo;
  out.hi = hi;
  out.num_bins = num_bins;
  out.aggregates.resize(static_cast<size_t>(num_bins), 0.0);
  out.row_counts.resize(static_cast<size_t>(num_bins), 0);

  const size_t d = base.num_fine_bins();
  // Group consecutive fine bins by their coarse bin under the SAME
  // BinIndexFor the direct scan uses, so the row-to-bin assignment is
  // identical by construction.  BinIndexFor is monotone non-decreasing
  // in the value and the fine bins are sorted, so one forward pass
  // suffices: O(d) bin-index evaluations, independent of num_bins —
  // which matters when b greatly exceeds the number of distinct values
  // (e.g. b_max = 1440 over a few hundred distinct minutes-played
  // values; the earlier per-bin binary search was O(b log d) and
  // dominated the probe).  Empty coarse bins are skipped implicitly
  // (left at 0).  The pass runs through the SIMD kernel table's
  // coarsen_by_prefix_diff (bit-identical across dispatch levels: the
  // index computation is pinned bit-exact and the moment diffs subtract
  // identical prefix values); per-thread aligned scratch keeps the
  // moment slabs allocation-free across probes.
  thread_local common::simd::AlignedVector<int64_t> counts;
  thread_local common::simd::AlignedVector<double> sums;
  thread_local common::simd::AlignedVector<double> sum_sqs;
  const size_t nb = static_cast<size_t>(num_bins);
  if (counts.size() < nb) {
    counts.resize(nb);
    sums.resize(nb);
    sum_sqs.resize(nb);
  }
  common::simd::ActiveKernels().coarsen_by_prefix_diff(
      base.values.data(), d, lo, hi, num_bins, base.prefix_counts.data(),
      base.prefix_sums.data(), base.prefix_sum_sqs.data(), counts.data(),
      sums.data(), sum_sqs.data());
  for (size_t k = 0; k < nb; ++k) {
    const int64_t count = counts[k];
    if (count > 0) {
      out.aggregates[k] =
          FinishFromMoments(function, count, sums[k], sum_sqs[k]);
      out.row_counts[k] = static_cast<size_t>(count);
    }
  }
  return out;
}

void BaseRawSeries(const BaseHistogram& base, AggregateFunction function,
                   std::vector<double>* keys,
                   std::vector<double>* aggregates) {
  MUVE_CHECK(BaseServableFunction(function));
  const size_t d = base.num_fine_bins();
  keys->assign(base.values.begin(), base.values.end());
  aggregates->clear();
  aggregates->reserve(d);
  for (size_t j = 0; j < d; ++j) {
    aggregates->push_back(FinishFromMoments(function, base.CountOf(j),
                                            base.sums[j], base.sum_sqs[j]));
  }
}

BaseHistogram MergeBaseHistograms(const BaseHistogram& a,
                                  const BaseHistogram& delta) {
  BaseHistogram out;
  const size_t da = a.values.size();
  const size_t db = delta.values.size();
  out.values.reserve(da + db);
  out.sums.reserve(da + db);
  out.sum_sqs.reserve(da + db);
  out.prefix_counts.reserve(da + db + 1);
  out.prefix_sums.reserve(da + db + 1);
  out.prefix_sum_sqs.reserve(da + db + 1);
  out.prefix_counts.push_back(0);
  out.prefix_sums.push_back(0.0);
  out.prefix_sum_sqs.push_back(0.0);
  out.source_rows = a.source_rows + delta.source_rows;
  out.table_rows = delta.table_rows;

  auto push = [&out](double value, int64_t count, double sum,
                     double sum_sq) {
    out.values.push_back(value);
    out.sums.push_back(sum);
    out.sum_sqs.push_back(sum_sq);
    out.prefix_counts.push_back(out.prefix_counts.back() + count);
    out.prefix_sums.push_back(out.prefix_sums.back() + sum);
    out.prefix_sum_sqs.push_back(out.prefix_sum_sqs.back() + sum_sq);
  };

  // Sorted dictionary union; a shared fine bin adds old moments first,
  // then the delta's — the "all pre-append rows precede appended rows"
  // association a full rebuild would also use.
  size_t i = 0;
  size_t j = 0;
  while (i < da && j < db) {
    if (a.values[i] < delta.values[j]) {
      push(a.values[i], a.CountOf(i), a.sums[i], a.sum_sqs[i]);
      ++i;
    } else if (delta.values[j] < a.values[i]) {
      push(delta.values[j], delta.CountOf(j), delta.sums[j],
           delta.sum_sqs[j]);
      ++j;
    } else {
      push(a.values[i], a.CountOf(i) + delta.CountOf(j),
           a.sums[i] + delta.sums[j], a.sum_sqs[i] + delta.sum_sqs[j]);
      ++i;
      ++j;
    }
  }
  for (; i < da; ++i) push(a.values[i], a.CountOf(i), a.sums[i], a.sum_sqs[i]);
  for (; j < db; ++j) {
    push(delta.values[j], delta.CountOf(j), delta.sums[j], delta.sum_sqs[j]);
  }
  return out;
}

std::string BaseHistogramKey(bool target_side, std::string_view dimension,
                             std::string_view measure) {
  // '|' cannot occur in column names, and keeps keys grep-able in logs.
  std::string key = target_side ? "t|" : "c|";
  key.append(dimension);
  key += '|';
  key.append(measure);
  return key;
}

BaseHistogramCache::BaseHistogramCache() : BaseHistogramCache(Options()) {}

BaseHistogramCache::BaseHistogramCache(Options options) : options_(options) {}

void BaseHistogramCache::InsertLocked(
    const std::string& key, bool target_side,
    std::shared_ptr<const BaseHistogram> histogram) {
  // Injected allocation refusal: behave as if caching the entry failed.
  // The caller still gets the histogram through its outcome — the store
  // simply "forgets", so a later build of this key scans again.  This is
  // the OOM degradation contract: losing the cache costs rescans, never
  // correctness.
  if (MUVE_FAILPOINT("cache.insert") == common::FailpointAction::kOom) {
    return;
  }
  const size_t bytes = histogram->ApproxBytes();
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(histogram), lru_.begin(), bytes,
                              target_side});
  stats_.bytes += static_cast<int64_t>(bytes);
  ++stats_.builds;
  SideLocked(target_side).bytes += static_cast<int64_t>(bytes);
  ++SideLocked(target_side).builds;
  EvictLocked();
}

void BaseHistogramCache::EvictLocked() {
  while (stats_.bytes + static_cast<int64_t>(reserved_bytes_) >
             static_cast<int64_t>(options_.max_bytes) &&
         entries_.size() > 1) {
    const auto victim = entries_.find(lru_.back());
    MUVE_CHECK(victim != entries_.end());
    EraseLocked(victim);
    ++stats_.evictions;
  }
}

void BaseHistogramCache::EraseLocked(EntryMap::iterator it) {
  stats_.bytes -= static_cast<int64_t>(it->second.bytes);
  SideLocked(it->second.target_side).bytes -=
      static_cast<int64_t>(it->second.bytes);
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

bool BaseHistogramCache::Contains(const std::string& key,
                                  int64_t expected_source_rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  return expected_source_rows < 0 ||
         it->second.histogram->source_rows == expected_source_rows;
}

common::Status BaseHistogramCache::FusedBuild(
    const Table& table, const FusedHistogramBuildRequest& request,
    FusedBuildOutcome* outcome, FusedScanScratch* scratch) {
  MUVE_CHECK(request.rows != nullptr);
  FusedBuildOutcome local;
  FusedBuildOutcome* result = outcome != nullptr ? outcome : &local;
  const int64_t expected_rows = static_cast<int64_t>(request.rows->size());
  result->histograms.assign(request.pairs.size(), nullptr);

  std::vector<size_t> missing;
  std::string flight_key;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // The loop only iterates when coalescing makes this call wait out
    // another thread's pass; each iteration follows a completed pass and
    // either finds everything cached, waits again, or leads a pass.
    for (;;) {
      // Snapshot what is missing; hits are read (and refreshed in LRU
      // order) now.  Snapshot and flight registration share the lock, so
      // a flight that is no longer registered has already inserted.
      missing.clear();
      for (size_t i = 0; i < request.pairs.size(); ++i) {
        const auto it = entries_.find(request.pairs[i].key);
        if (it != entries_.end() &&
            it->second.histogram->source_rows == expected_rows) {
          result->histograms[i] = it->second.histogram;
          lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        } else {
          missing.push_back(i);
        }
      }
      if (missing.empty() || !request.coalesce) break;

      // Single-flight admission: the pass's identity is its sorted set
      // of missing keys.  The first thread registers the flight and
      // scans; threads arriving with the SAME set wait for it, polling
      // their own ExecContext between time-boxed waits, so a tripped
      // deadline abandons the wait without touching the shared pass.
      std::vector<std::string_view> keys;
      keys.reserve(missing.size());
      for (const size_t i : missing) keys.push_back(request.pairs[i].key);
      std::sort(keys.begin(), keys.end());
      flight_key.clear();
      for (const std::string_view key : keys) {
        flight_key.append(key);
        flight_key += '\n';
      }
      if (flights_.insert(flight_key).second) break;  // leader
      ++result->coalesced;
      while (flights_.count(flight_key) != 0) {
        if (request.exec != nullptr && request.exec->Expired()) {
          return request.exec->ExpiryStatus();
        }
        flights_cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
      flight_key.clear();
    }
    const int64_t cached =
        static_cast<int64_t>(request.pairs.size() - missing.size());
    stats_.lookups += static_cast<int64_t>(request.pairs.size());
    stats_.hits += cached;
    SideLocked(request.target_side).hits += cached;
    stats_.misses += static_cast<int64_t>(missing.size());
    result->already_cached += cached;
  }
  if (missing.empty()) return common::Status::OK();

  // Leader (or coalescing off): deregister the flight on EVERY exit,
  // success or error, and wake waiters.
  struct FlightGuard {
    BaseHistogramCache* cache;
    const std::string* key;
    ~FlightGuard() {
      if (key->empty()) return;
      {
        std::lock_guard<std::mutex> lock(cache->mu_);
        cache->flights_.erase(*key);
      }
      cache->flights_cv_.notify_all();
    }
  } flight_guard{this, &flight_key};

  std::vector<FusedScanPair> pairs;
  pairs.reserve(missing.size());
  for (const size_t i : missing) {
    pairs.push_back({request.pairs[i].dimension, request.pairs[i].measure});
  }
  // ONE pass over the row set builds every missing pair, outside the
  // lock (it may fan out over the thread pool).
  FusedScanStats scan_stats;
  MUVE_ASSIGN_OR_RETURN(
      std::vector<BaseHistogram> built,
      FusedBuildBaseHistograms(table, *request.rows, pairs, request.pool,
                               request.morsel_size, &scan_stats, scratch,
                               request.exec));
  ++result->passes;
  result->rows_scanned += expected_rows;
  result->morsels += scan_stats.morsels;

  std::lock_guard<std::mutex> lock(mu_);
  for (size_t j = 0; j < missing.size(); ++j) {
    const size_t i = missing[j];
    const std::string& key = request.pairs[i].key;
    const auto it = entries_.find(key);
    if (it != entries_.end() &&
        it->second.histogram->source_rows == expected_rows) {
      // First-wins: a concurrent build landed this key already; both
      // histograms cover identical row sets, keep the cached one.
      result->histograms[i] = it->second.histogram;
      ++result->already_cached;
      continue;
    }
    result->histograms[i] =
        std::make_shared<const BaseHistogram>(std::move(built[j]));
    ++result->histograms_built;
    if (it != entries_.end()) {
      // A newer version holds the key: this build serves its caller
      // only.  An older one is replaced.
      if (it->second.histogram->source_rows > expected_rows) continue;
      EraseLocked(it);
    }
    InsertLocked(key, request.target_side, result->histograms[i]);
  }
  return common::Status::OK();
}

bool BaseHistogramCache::MergeDelta(const std::string& key,
                                    const BaseHistogram& delta,
                                    int64_t table_rows_before) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const int64_t stamp = it->second.histogram->table_rows;
  if (stamp != table_rows_before) {
    // A post-append reader already rebuilt this entry over the appended
    // table: patching it would count the delta twice.  An entry of any
    // other version is wrong for the post-append table either way.
    if (stamp != delta.table_rows) EraseLocked(it);
    return false;
  }
  auto merged = std::make_shared<const BaseHistogram>(
      MergeBaseHistograms(*it->second.histogram, delta));
  const size_t new_bytes = merged->ApproxBytes();
  const int64_t grown = static_cast<int64_t>(new_bytes) -
                        static_cast<int64_t>(it->second.bytes);
  stats_.bytes += grown;
  SideLocked(it->second.target_side).bytes += grown;
  it->second.bytes = new_bytes;
  it->second.histogram = std::move(merged);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.delta_merges;
  // A patched entry can push the store over budget; the entry just
  // refreshed is LRU front, so it survives.
  EvictLocked();
  return true;
}

void BaseHistogramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.bytes = 0;
  stats_.target.bytes = 0;
  stats_.comparison.bytes = 0;
}

size_t BaseHistogramCache::ErasePrefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto next = std::next(it);
    if (std::string_view(it->first).starts_with(prefix)) {
      EraseLocked(it);
      ++erased;
    }
    it = next;
  }
  return erased;
}

size_t BaseHistogramCache::SetReservedBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_bytes_ = bytes;
  EvictLocked();
  return static_cast<size_t>(stats_.bytes);
}

BaseHistogramCache::CacheStats BaseHistogramCache::TotalStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace muve::storage
