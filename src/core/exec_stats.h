// Cost accounting for view recommendation (Section III-C).
//
// The paper charges four operation costs per candidate binned view:
// target query execution C_t, comparison query execution C_c, deviation
// computation C_d, and accuracy evaluation C_a.  `ExecStats` accumulates
// wall-clock time and operation counts per component; the figure
// harnesses report `TotalCostMillis()` as the paper's "cost" axis and the
// probe counters for Figure 6c's "fully probed views".

#ifndef MUVE_CORE_EXEC_STATS_H_
#define MUVE_CORE_EXEC_STATS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace muve::core {

// Completeness report for a bounded (deadline / cancellation / budget)
// run.  The paper's S-list walk makes MuVE naturally *anytime*: stopping
// between probes leaves a valid partial top-k, and this block says how
// partial.  On an unbounded (or unexpired) run `degraded` is false, the
// counters equal the full workload, and status is kOk.
struct ExecCompleteness {
  // True iff execution control actually skipped work.  A run whose
  // deadline expires after the last probe finished is NOT degraded.
  bool degraded = false;
  // Views whose horizontal search ran to its natural end (exhausted the
  // bin domain, hill-climbing converged, or early-terminated — any
  // outcome the unbounded run would also have produced).
  int64_t views_fully_searched = 0;
  // Bin-count probes skipped because execution control expired (distinct
  // from the paper's pruning counters, which an unbounded run also has).
  int64_t bins_pruned_by_deadline = 0;
  // kOk, or the first cause of degradation: kDeadlineExceeded,
  // kCancelled, kResourceExhausted.
  common::StatusCode status = common::StatusCode::kOk;

  void Merge(const ExecCompleteness& other);
};

struct ExecStats {
  // Operation counts.
  int64_t target_queries = 0;
  int64_t comparison_queries = 0;
  int64_t deviation_evals = 0;
  int64_t accuracy_evals = 0;
  // Total row-set traversals, in rows: every scan pass over a row set
  // charges its size once, whether the pass serves one (A, M) pair (a
  // direct probe) or every pair at once (a fused build — ONE traversal
  // that reads each row's dimension and measure cells once each).
  // Invariant: rows_scanned == build_rows_scanned + probe_rows_scanned.
  int64_t rows_scanned = 0;
  // The build/probe split (attribution for the sharing ablations): rows
  // traversed building base histograms vs rows traversed by direct probe
  // scans (MIN/MAX, categorical views, COUNT over a string measure).
  int64_t build_rows_scanned = 0;
  int64_t probe_rows_scanned = 0;

  // Base-histogram cache accounting (the O(1) re-binning optimization):
  // build PASSES executed (each is one row-set traversal, charged into
  // rows_scanned; a fused pass builds every missing (A, M) of its side
  // at once) vs probes served from an already-built histogram without
  // touching rows.  Both stay 0 on a workload no base can serve (only
  // MIN/MAX or categorical views).
  int64_t base_builds = 0;
  int64_t base_cache_hits = 0;

  // Fused scan engine accounting: fused multi-(A, M) build passes, and
  // morsel tasks dispatched by their accumulation phases (1 per ~64K
  // rows per pass; > passes only when row sets exceed one morsel).
  int64_t fused_builds = 0;
  int64_t morsels_dispatched = 0;
  // Cross-request sharing: fused passes this run did NOT scan because an
  // identical pass was already in flight on the shared cache — the
  // single-flight scheduler parked this side and it woke to cache hits
  // (SearchOptions::shared_base_cache).  0 on a run that shares nothing.
  int64_t fused_coalesced = 0;

  // Chunked-storage accounting: column chunks the predicate layer never
  // scanned because their zone maps (min/max/null-count, or a string
  // chunk's dictionary) decided the chunk wholesale.  0 when every chunk
  // had to be scanned (and on single-chunk tables whose zone map cannot
  // exclude anything).
  int64_t chunks_skipped = 0;

  // Incremental-ingest accounting (set by serving frontends that patch
  // cached base histograms after an append): cached (A, M) entries
  // updated by delta merge instead of rebuilt, and appended rows those
  // delta passes traversed.  Both stay 0 for library callers and on
  // cold builds.
  int64_t delta_merges = 0;
  int64_t ingest_rows = 0;

  // Setup accounting (outside the paper's C: one-off costs before any
  // probe runs).  Rows eliminated by the WHERE predicate selecting D_Q,
  // and wall-clock spent on dataset load + predicate filtering.
  int64_t predicate_rows_filtered = 0;
  double setup_time_ms = 0.0;

  // Admission accounting (outside the paper's C, set by a serving
  // frontend such as muved): wall-clock this request spent queued at the
  // admission gate before execution began, and the gate's queue depth
  // when it was admitted.  Both stay 0 for library callers; queue_ms is
  // wall-clock, so it lives beside setup_time_ms in the timing block and
  // never in deterministic output.
  double queue_ms = 0.0;
  int64_t queue_depth_on_admit = 0;

  // Candidate accounting.
  int64_t candidates_considered = 0;
  // Pruned by the S-bound before any probe (incremental evaluation, step 1).
  int64_t pruned_before_probes = 0;
  // Pruned after the first objective probe (incremental evaluation, step 2).
  int64_t pruned_after_first_probe = 0;
  // Both deviation and accuracy evaluated (Figure 6c's metric).
  int64_t fully_probed = 0;
  // Horizontal searches that hit the early-termination condition.
  int64_t early_terminations = 0;
  int64_t views_searched = 0;

  // Wall-clock per component, milliseconds.
  double target_time_ms = 0.0;
  double comparison_time_ms = 0.0;
  double deviation_time_ms = 0.0;
  double accuracy_time_ms = 0.0;

  // SIMD dispatch level the kernels ran at ("scalar" / "avx2");
  // set by the recommender from common::simd::ActiveLevelName().  Merge
  // adopts the other block's value when this one is empty (per-worker
  // stat blocks all run the same process-wide dispatch table).
  std::string simd_dispatch;

  // Width of the thread pool whose workers produced these stats
  // (1 = serial).  Merge keeps the maximum: folding W per-worker stat
  // blocks into one run total must report the pool width W, not W * 1,
  // and merging two runs reports the wider.  The recommender overwrites
  // this with the actual pool width after the per-worker merge.
  int num_workers = 1;

  // How complete the run was under execution control (deadline /
  // cancellation / row budget).  Default: complete.
  ExecCompleteness completeness;

  // The paper's total cost C (Eq. 7): sum of the four components.
  double TotalCostMillis() const {
    return target_time_ms + comparison_time_ms + deviation_time_ms +
           accuracy_time_ms;
  }

  void Merge(const ExecStats& other);

  std::string ToString() const;
};

}  // namespace muve::core

#endif  // MUVE_CORE_EXEC_STATS_H_
