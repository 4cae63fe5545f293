// Fused morsel-parallel scan engine: ONE pass over a row set builds the
// base histograms of EVERY requested (dimension, measure) pair.
//
// MuVE's dominant cost is query execution against D_Q / D_B (Section IV),
// and the base-histogram cache already collapsed per-(view, b) probes into
// O(d) re-binning — but each (A, M) pair still paid a full row scan for
// its build, so a run over |A| dimensions x |M| measures traversed the
// same rows |A| x |M| times per side.  This module fuses all those builds
// into a single traversal (SeeDB's shared-scan idea applied to the build
// phase):
//
//   Phase A (dictionaries, parallel across dimensions): for each distinct
//     dimension, the sorted fine-bin key dictionary, built ONCE and
//     shared by every measure paired with that dimension.  Coded path:
//     merge the numeric dictionaries of the chunks the row set spans
//     (storage/chunk.h; at most kMaxNumericDictSize values per chunk),
//     plus a per-chunk remap from chunk code to sorted index — no row is
//     read.  Sorted path, when a spanned chunk is high-cardinality or the
//     row set has fewer rows than the merged dictionary has entries:
//     gather the non-NULL values over the row set, sort, dedupe.
//   Phase B (key arrays, morsel x dimension parallel): map each row
//     position to its dense dictionary index (kNullKey for NULL cells),
//     so Phase C's accumulators are plain array indexing.  Coded path:
//     keys[p] = remap[chunk][code[row]]; sorted path: a binary search of
//     the cell value.
//   Phase C (accumulation, morsel-parallel): the row set splits into
//     ~64K-row morsels dispatched on the shared ThreadPool; each morsel
//     accumulates count / sum / sum-of-squares per (pair, fine bin) into
//     its OWN partial arena slab (no sharing, no locks).
//   Phase D (merge, serial): partials fold in ascending morsel order —
//     a fixed association independent of which worker ran which morsel,
//     so results are identical for 1 and N threads.  Fine bins whose
//     merged count is 0 (every row NULL on the measure) are compacted
//     away, restoring the exact per-(A, M) fine-bin set of the old
//     per-pair builder — and dropping the values of a merged chunk
//     dictionary that no row of the row set holds, so both Phase A paths
//     yield the same histograms bit for bit.
//
// Determinism / exactness contract (pinned by
// tests/storage/fused_scan_differential_test.cc):
//   * Thread-count invariant: the output depends on the morsel
//     partitioning, never on the worker schedule.
//   * With a single morsel (morsel_size >= rows), per-fine-bin sums
//     accumulate in row order — bit-identical to the legacy per-pair
//     builder (which BuildBaseHistogram now delegates to).
//   * With multiple morsels, per-bin sums re-associate at morsel
//     boundaries: still bit-exact for COUNT and for integer-valued
//     measures, and within ~1e-12 relative error otherwise (the same
//     contract the prefix-sum cache already carries for AVG/STD/VAR).

#ifndef MUVE_STORAGE_FUSED_SCAN_H_
#define MUVE_STORAGE_FUSED_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/simd/aligned.h"
#include "common/status.h"
#include "storage/base_histogram_cache.h"
#include "storage/column.h"
#include "storage/table.h"

namespace muve::common {
class ExecContext;
class ThreadPool;
}  // namespace muve::common

namespace muve::storage {

// Default morsel width: large enough that per-morsel fixed costs vanish,
// small enough that a few hundred thousand rows still split across
// workers.
inline constexpr size_t kDefaultFusedMorselSize = size_t{64} * 1024;

// One (dimension, measure) pair whose base histogram the fused pass
// should produce.
struct FusedScanPair {
  std::string dimension;
  std::string measure;
};

// Accounting for one fused build pass.
struct FusedScanStats {
  // Morsel tasks dispatched in the accumulation phase (Phase C).
  int64_t morsels = 0;
  // Distinct dimensions whose dictionary was built (Phase A), and those
  // of them built on the coded path (merged chunk dictionaries).
  int64_t dimensions = 0;
  int64_t coded_dimensions = 0;
  // Wall-clock per phase: dictionaries (A), key arrays (B), accumulation
  // (C) and merge (D).
  double dict_ms = 0.0;
  double keys_ms = 0.0;
  double accumulate_ms = 0.0;
  double merge_ms = 0.0;
};

// Reusable scratch arena: dictionaries, dense key arrays, and the
// per-morsel partial accumulators.  Passing the same scratch across
// builds reuses the allocations (the old per-pair builder allocated and
// sorted a fresh (value, measure) pair vector on every build — that
// churn is gone).  A scratch instance must not be shared by concurrent
// builds; per-evaluator ownership is the intended pattern.
// The key arrays and morsel-partial arenas are 64-byte aligned
// (common/simd/aligned.h): cache-line-aligned slabs keep the per-morsel
// partials from straddling lines.
struct FusedScanScratch {
  // Per-dimension sorted values, plus the chunk code remap on the coded
  // path (remap_begin is empty on the sorted path).
  std::vector<MergedNumericDict> dicts;
  // per-dimension dense keys
  std::vector<common::simd::AlignedVector<uint32_t>> keys;
  // Chunk-local row offsets (rows[p] & chunk_mask), position-aligned
  // with `rows`: Phase C feeds them to its keyed accumulator one chunk
  // run at a time, with the run's chunk data pointer.
  common::simd::AlignedVector<uint32_t> local_rows;
  common::simd::AlignedVector<int64_t> counts;  // morsel-partial arenas
  common::simd::AlignedVector<double> sums;
  common::simd::AlignedVector<double> sum_sqs;
};

// Builds the base histogram of every pair in `pairs` over `rows` in one
// fused pass.  Output order matches `pairs`.  Errors mirror the per-pair
// builder's (unknown column, string dimension, string measure) and are
// reported for the FIRST offending pair; nothing is built on error.
//
//   * `pool` — when non-null, phases A-C run data-parallel on it (the
//     caller participates as worker 0; the pool must not be mid-
//     ParallelFor).  Null runs fully inline.
//   * `morsel_size` — rows per morsel; 0 selects
//     kDefaultFusedMorselSize.  The morsel partitioning (not the worker
//     count) is what determines FP association, so fixing it fixes the
//     output bits.
//   * `stats` / `scratch` — optional accounting and allocation reuse.
//   * `ctx` — execution control (common/exec_context.h).  The pass polls
//     it before each phase and per Phase-C morsel; once it expires no new
//     morsel starts and the whole build aborts with the context's expiry
//     Status.  NOTHING is returned or cached from an aborted pass —
//     partial histograms must never be mistaken for complete ones — so
//     callers degrade to direct single-pair builds for the probes they
//     still run.  Null = unbounded (today's behavior).
common::Result<std::vector<BaseHistogram>> FusedBuildBaseHistograms(
    const Table& table, const RowSet& rows,
    const std::vector<FusedScanPair>& pairs,
    common::ThreadPool* pool = nullptr, size_t morsel_size = 0,
    FusedScanStats* stats = nullptr, FusedScanScratch* scratch = nullptr,
    common::ExecContext* ctx = nullptr);

}  // namespace muve::storage

#endif  // MUVE_STORAGE_FUSED_SCAN_H_
