// Base-histogram prefix-sum cache: the sharing optimization behind O(1)
// re-binning (Section II-A's "shared computation" family).
//
// Horizontal search probes the same non-binned view (A, M, F) at many bin
// counts b.  Re-executing the binned group-by scan per (view, b) costs
// O(|rows|) each time; this module instead materializes ONE base histogram
// per (row set, A, M) at the finest granularity any equi-width binning can
// distinguish — one fine bin per distinct dimension value — in a single
// row scan, storing per-fine-bin count / sum / sum-of-squares plus their
// prefix arrays.  Any b-bin view is then derived by prefix-sum differences
// between bin boundaries found in one forward pass over the d fine bins:
// O(d) work, independent of b, zero rows touched.
//
// Why distinct values and not a fixed b_max-bin grid: a fine equi-width
// grid can only coarsen exactly into bin counts that divide b_max (a fine
// bin straddling a coarse boundary would misassign whole rows), and the
// search domain is {1..B} — most b do not divide any fixed b_max.  At
// distinct-value granularity every coarse bin edge falls between fine
// bins, because bin assignment is a monotone function of the dimension
// value.  Bin boundaries are located with the SAME BinIndexFor used by
// the direct scan, so the row-to-bin assignment is identical by
// construction, not merely up to floating-point luck.
//
// Exactness contract (pinned by tests/core/rebin_differential_test.cc):
//   * COUNT — bit-identical to BinnedAggregate (integer counts).
//   * SUM / AVG — identical row-to-bin assignment; the per-bin sum is
//     re-associated (per-value partials in value order instead of row
//     order), so results are bit-identical whenever every partial sum is
//     exactly representable (e.g. integer-valued measures) and within
//     ~1e-12 relative rounding error otherwise.
//   * STD / VAR — computed from (count, sum, sum_sq) moments instead of
//     the direct path's Welford recurrence; equal within FP tolerance,
//     with the same "0 for fewer than two observations" convention.
//   * MIN / MAX — NOT servable from prefix sums; callers fall back to the
//     direct scan (ViewSpace::Create gives such views no base pair).
//
// `BaseHistogramCache` is the shared, size-bounded store: one mutex, one
// LRU list and one byte budget.  A Recommender run keeps a private one;
// muved keeps ONE for the whole server, in which every predicate of a
// table version shares the comparison (D_B) bases and each predicate
// adds its own target (D_Q) bases, told apart by the key prefixes of a
// BaseCacheHandle.  Probes do not read it: each
// ViewEvaluator pins the histograms it uses (core/view_evaluator.h), so
// the store sees one lookup per (pair, side, evaluator) — it is filled
// and read through FusedBuild only.  Entries are immutable once built
// and handed out as shared_ptr<const>, so eviction never invalidates a
// histogram a worker is still coarsening.

#ifndef MUVE_STORAGE_BASE_HISTOGRAM_CACHE_H_
#define MUVE_STORAGE_BASE_HISTOGRAM_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/aggregate.h"
#include "storage/binned_group_by.h"
#include "storage/table.h"

namespace muve::common {
class ExecContext;
class ThreadPool;
}  // namespace muve::common

namespace muve::storage {

struct FusedScanScratch;  // storage/fused_scan.h

// Finest-granularity histogram of one (row set, dimension, measure) pair:
// one fine bin per distinct dimension value, restricted to rows where
// both the dimension and the measure are non-NULL (the rows every
// aggregate kernel consumes).
struct BaseHistogram {
  // Sorted distinct dimension values ("fine bin" keys), size d.
  std::vector<double> values;
  // Per-fine-bin measure sums / sums of squares, accumulated in row order
  // within each fine bin (matching GroupByAggregate's association, which
  // keeps the derived raw series bit-exact for SUM/AVG), size d.
  std::vector<double> sums;
  std::vector<double> sum_sqs;
  // Prefix arrays, size d + 1: prefix_x[j] aggregates fine bins [0, j).
  std::vector<int64_t> prefix_counts;
  std::vector<double> prefix_sums;
  std::vector<double> prefix_sum_sqs;
  // Rows scanned by the build (the cost the cache amortizes).
  int64_t source_rows = 0;
  // Table::num_rows() of the table version the histogram describes: the
  // version stamp MergeDelta checks before patching an entry.
  int64_t table_rows = 0;

  size_t num_fine_bins() const { return values.size(); }
  int64_t CountOf(size_t fine_bin) const {
    return prefix_counts[fine_bin + 1] - prefix_counts[fine_bin];
  }
  // Rough retained-memory estimate used by the cache's byte budget.
  size_t ApproxBytes() const;
};

// True for the aggregate functions a BaseHistogram can serve (SUM, COUNT,
// AVG, STD, VAR — everything derivable from count/sum/sum_sq moments).
bool BaseServableFunction(AggregateFunction function);

// Finishes one bin from its moments with the exact empty/singleton
// conventions of AggregateAccumulator::Finish (0 for empty bins; STD/VAR
// are 0 for fewer than two rows, clamped at 0 against cancellation).
double FinishFromMoments(AggregateFunction function, int64_t count,
                         double sum, double sum_sq);

// Derives the `num_bins`-bin equi-width view over [lo, hi] by prefix-sum
// differences.  Bin boundaries are located by binary search with the same
// BinIndexFor the direct scan uses, so every row lands in the same bin as
// under BinnedAggregate.  Requires BaseServableFunction(function).
BinnedResult CoarsenBaseHistogram(const BaseHistogram& base,
                                  AggregateFunction function, int num_bins,
                                  double lo, double hi);

// The raw (non-binned) series of the same (row set, dimension, measure)
// pair under `function`: keys = distinct values, one aggregate per fine
// bin.  Bit-exact vs GroupByAggregate for SUM/COUNT/AVG (same per-group
// association); moment-derived (FP tolerance) for STD/VAR.  Requires
// BaseServableFunction(function).
void BaseRawSeries(const BaseHistogram& base, AggregateFunction function,
                   std::vector<double>* keys,
                   std::vector<double>* aggregates);

// Merges two base histograms of the SAME (dimension, measure) pair over
// DISJOINT row sets — the additivity that makes incremental ingest
// O(new rows): `a` over the pre-append rows, `delta` over only the
// appended rows.  Fine-bin dictionaries union (sorted merge); counts,
// sums, and sums-of-squares add per shared value; prefix arrays rebuild.
// The result carries `delta`'s table_rows (the post-append version).
// Exactness: COUNT is bit-identical to a full rebuild.  SUM moments
// re-associate at the merge boundary (old-total + new-total instead of
// one row-order chain), so SUM/AVG/STD/VAR are bit-identical whenever
// partial sums are exactly representable (integer-valued measures) and
// within the cache's ~1e-12 relative-error contract otherwise — the
// same contract multi-morsel fused builds already carry.
BaseHistogram MergeBaseHistograms(const BaseHistogram& a,
                                  const BaseHistogram& delta);

// The store key of the (dimension, measure) pair's base histogram over
// the target ("t|A|M") or comparison ("c|A|M") row set.  The key is
// F-agnostic: one histogram serves every servable aggregate of the pair.
std::string BaseHistogramKey(bool target_side, std::string_view dimension,
                             std::string_view measure);

// The default byte budget of a store, and of muved's one server-wide
// store.
inline constexpr size_t kDefaultBaseCacheBytes = size_t{64} << 20;  // 64 MiB

// Thread-safe, size-bounded store of BaseHistograms keyed by caller
// strings (BaseHistogramKey, optionally behind a caller prefix).  One
// key must only ever name bases of ONE growing row set: the rows of a
// table version, or the rows a fixed predicate selects from it, within
// one base_epoch.  Such row sets are append-only, so an entry's
// `source_rows` orders the versions it can describe.
class BaseHistogramCache {
 public:
  struct Options {
    // Byte budget; LRU eviction keeps the store, plus any reserved
    // bytes (SetReservedBytes), under it.  The most recently inserted
    // entry is never evicted (a histogram larger than the budget still
    // serves the run that built it).
    size_t max_bytes = kDefaultBaseCacheBytes;
  };

  // One side's share of the counters below.
  struct SideStats {
    int64_t builds = 0;
    int64_t hits = 0;
    int64_t bytes = 0;
  };

  struct CacheStats {
    // FusedBuild reads: every requested pair counts one lookup and
    // exactly one of hit / miss (hits + misses == lookups — pinned by
    // the cross-query differential suite).  `builds` counts entries
    // inserted.
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t builds = 0;
    int64_t evictions = 0;
    // Entries patched in place by MergeDelta (incremental ingest).
    int64_t delta_merges = 0;
    int64_t bytes = 0;  // currently retained
    // builds / hits / bytes split by the side the requests named
    // (FusedHistogramBuildRequest::target_side).
    SideStats target;
    SideStats comparison;
  };

  // Two overloads instead of one defaulted argument: a `= Options()`
  // default would require the nested class's member initializers before
  // the enclosing class is complete (ill-formed per [dcl.fct.default]).
  BaseHistogramCache();
  explicit BaseHistogramCache(Options options);

  // Whether `key` currently has an entry.  Does not touch LRU order or
  // the lookup counters.  `expected_source_rows` >= 0 additionally
  // requires the entry to cover exactly that many rows (FusedBuild's
  // staleness guard); a mismatched entry reads as absent.
  bool Contains(const std::string& key,
                int64_t expected_source_rows = -1) const;

  // One pair of a fused build request: the cache key under which the
  // histogram is stored plus the (dimension, measure) columns it covers.
  struct FusedPairRequest {
    std::string key;
    std::string dimension;
    std::string measure;
  };

  // A fused build: ONE pass over `*rows` produces the base histograms of
  // every still-missing pair (pairs already cached are served as they
  // are), split into ~`morsel_size`-row morsels on `pool` when provided.
  // The prewarm asks for every pair of a side at recommendation start;
  // an evaluator whose pin is empty asks for one pair, with one morsel.
  struct FusedHistogramBuildRequest {
    const RowSet* rows = nullptr;
    std::vector<FusedPairRequest> pairs;
    common::ThreadPool* pool = nullptr;
    size_t morsel_size = 0;  // 0 = engine default (64K rows)
    // Execution control: the fused pass polls it per morsel and aborts
    // (caching nothing) once expired — see FusedBuildBaseHistograms.
    // Null = unbounded.
    common::ExecContext* exec = nullptr;
    // Single-flight coalescing: when another thread is already running a
    // fused pass over the SAME missing-pair set, wait for it instead of
    // scanning again, then re-check what is still missing (normally
    // nothing — the call returns having scanned zero rows).  A waiter
    // whose own `exec` expires gives up with that expiry status and the
    // in-flight pass is NOT disturbed; a waiter whose leader aborted or
    // whose entries were already evicted simply becomes the next leader.
    // Only concurrent IDENTICAL builds coalesce — overlapping-but-
    // different pair sets run independently (first-wins insert keeps
    // that correct).
    bool coalesce = false;
    // Which side the pairs belong to; it only splits the store's
    // counters (CacheStats::target / comparison).
    bool target_side = false;
  };

  // Accounting for one FusedBuild call, for the caller's ExecStats:
  // `passes` is 0 or 1 (whether a scan actually ran), `rows_scanned` is
  // rows->size() per pass (ONE traversal covers every pair).
  struct FusedBuildOutcome {
    int64_t passes = 0;
    int64_t histograms_built = 0;
    int64_t already_cached = 0;
    int64_t rows_scanned = 0;
    int64_t morsels = 0;
    // Times this call waited on another thread's identical in-flight
    // pass instead of scanning (ExecStats::fused_coalesced).
    int64_t coalesced = 0;
    // On success, every requested pair's histogram in request order,
    // whether it was cached or built — also when the store refused to
    // keep it (an injected `cache.insert=oom`).
    std::vector<std::shared_ptr<const BaseHistogram>> histograms;
  };

  // Executes the fused build.  An entry covering a different row count
  // than `request.rows` is another version of the row set and reads as
  // missing.  Histograms are inserted only over an older version:
  //   * no entry, or one covering fewer rows — insert (replace);
  //   * one covering the same rows — first wins, keep the cached one;
  //   * one covering MORE rows — a newer version (a post-append reader
  //     built it, or the append patched it): the build serves only its
  //     own caller and is not inserted, so a reader still pinned to an
  //     older table version never displaces a newer base.
  // A key's row sets are append-only (a post-append set is a superset
  // of its pre-append version), so equal size implies equal set.
  // Errors from the scan engine are propagated; nothing is cached on
  // error.
  common::Status FusedBuild(const Table& table,
                            const FusedHistogramBuildRequest& request,
                            FusedBuildOutcome* outcome = nullptr,
                            FusedScanScratch* scratch = nullptr);

  // Incremental ingest: replaces the entry at `key` with
  // MergeBaseHistograms(entry, delta), where `delta` covers ONLY the
  // rows an append added to a table of `table_rows_before` rows, built
  // against the post-append table.  Only an entry stamped
  // `table_rows_before` is patched (moved to LRU front, byte accounting
  // updated) and the call returns true.  An entry already stamped with
  // delta.table_rows was rebuilt by a post-append reader and is current,
  // so it is left alone; any other entry describes neither version and
  // is dropped.  Those cases, and an absent entry, return false — the
  // next build then covers the full row set, which is correct, just not
  // incremental.  Outstanding shared_ptrs to the old histogram stay
  // valid (readers pinned to the pre-append snapshot keep consistent
  // bases).
  bool MergeDelta(const std::string& key, const BaseHistogram& delta,
                  int64_t table_rows_before);

  // Drops every entry (a fresh cold-cache run).  Outstanding shared_ptrs
  // stay valid.
  void Clear();

  // Drops every entry whose key starts with `prefix`; returns how many.
  // Outstanding shared_ptrs stay valid.
  size_t ErasePrefix(std::string_view prefix);

  // Sets the bytes held outside the store that count against its budget
  // (muved's score memos, server/registry.h), then evicts bases until
  // both fit — never the most recently inserted one.  Returns the bases'
  // retained bytes.
  size_t SetReservedBytes(size_t bytes);

  // `bytes` is the current retained footprint.
  CacheStats TotalStats() const;

  size_t max_bytes() const { return options_.max_bytes; }

 private:
  struct Entry {
    std::shared_ptr<const BaseHistogram> histogram;
    std::list<std::string>::iterator lru_it;
    size_t bytes = 0;
    bool target_side = false;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  // The helpers below require mu_.
  SideStats& SideLocked(bool target_side) {
    return target_side ? stats_.target : stats_.comparison;
  }
  // Inserts at LRU front with byte accounting, then evicts to budget.
  void InsertLocked(const std::string& key, bool target_side,
                    std::shared_ptr<const BaseHistogram> histogram);
  // Drops the LRU tail until the store fits its budget, never evicting
  // the front entry.
  void EvictLocked();
  void EraseLocked(EntryMap::iterator it);

  const Options options_;

  // Guards everything below, the single-flight registry included.
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recently used
  EntryMap entries_;
  // Counters; `bytes` is the retained footprint.
  CacheStats stats_;
  // Bytes held outside the store under its budget (SetReservedBytes).
  size_t reserved_bytes_ = 0;
  // Single-flight registry for coalesced fused builds: the missing-pair
  // set keys with a pass in flight.  One cv for all flights — coalescing
  // events are rare and short-lived, so waiters tolerate spurious wakes
  // from unrelated flights; they also time-box each wait to poll their
  // own ExecContext.
  std::condition_variable flights_cv_;
  std::unordered_set<std::string> flights_;
};

// How an evaluator reaches its bases in a store: the store plus one key
// prefix per side, prepended to BaseHistogramKey.  A store private to one
// (target, comparison) row-set pair uses empty prefixes, which is what
// the converting constructor gives.  muved's server-wide store gives
// every predicate of a table version the same comparison prefix and a
// target prefix of its own (server/registry.h).
struct BaseCacheHandle {
  BaseCacheHandle() = default;
  BaseCacheHandle(std::shared_ptr<BaseHistogramCache> store)  // NOLINT
      : cache(std::move(store)) {}
  BaseCacheHandle(std::shared_ptr<BaseHistogramCache> store,
                  std::string target, std::string comparison)
      : cache(std::move(store)),
        target_prefix(std::move(target)),
        comparison_prefix(std::move(comparison)) {}

  // The store key of a pair's base on one side.
  std::string Key(bool target_side, std::string_view dimension,
                  std::string_view measure) const {
    return (target_side ? target_prefix : comparison_prefix) +
           BaseHistogramKey(target_side, dimension, measure);
  }

  std::shared_ptr<BaseHistogramCache> cache;
  std::string target_prefix;
  std::string comparison_prefix;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_BASE_HISTOGRAM_CACHE_H_
