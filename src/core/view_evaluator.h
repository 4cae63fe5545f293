// The probe engine: executes the queries behind the deviation and
// accuracy objectives and charges their costs (Section III-C).
//
// Every search strategy funnels its objective evaluations through a
// ViewEvaluator so that
//   * costs are measured uniformly (C_t / C_c / C_d / C_a wall-clock into
//     ExecStats, observations into the CostModel driving MuVE's probe-
//     order priority rule), and
//   * objective values are deterministic — the same (view, bins) pair
//     always yields the same deviation/accuracy, which is what makes the
//     exact schemes (Linear, MuVE) provably return identical top-k sets.
//
// How a probe is served follows from the view alone, never from an
// option: ViewSpace::Create resolved each view's dimension index and
// base pair once.
//   * A view with a base pair (numeric dimension, SUM/COUNT/AVG/STD/VAR,
//     numeric measure) reads the (A, M) side's base histogram
//     (storage/base_histogram_cache.h) and coarsens it to b bins without
//     touching rows.  The evaluator pins each base it reads in a slot
//     indexed by pair, for its whole life: tables are immutable and its
//     row sets fixed, so a pin never goes stale, and a pinned read takes
//     no lock and builds no string.  The prewarm's fused pass fills the
//     shared store and this evaluator's pins; an empty pin (another
//     worker's first read, a prewarm that was skipped or aborted, an
//     entry the store evicted or refused) reads the store through a
//     one-pair FusedBuild, which builds the pair with one morsel when the
//     store lacks it.
//   * Everything else — MIN/MAX, categorical dimensions, COUNT over a
//     string measure — scans the rows directly (BinnedAggregate /
//     GroupByAggregate).
//
// Caching policy (documented deviations from re-executing every query):
//   * The raw (non-binned) target series needed by the accuracy objective
//     is computed once per view and cached; its computation time is
//     charged to C_a on first use.
//   * Within one candidate (view, bins), the binned target result is
//     reused between the deviation and accuracy probes.  This is a strict
//     optimization that cannot change any objective value.
//   * With a score memo (Options::score_memo, core/score_memo.h), a
//     probe whose (view, bins, distance) slot an earlier probe filled —
//     in this run or an earlier one — returns the stored bits: no C_t /
//     C_c / C_d / C_a, no cost-model observation, no query counter, one
//     ExecStats::memo_hits.  A miss probes as above and fills the slot
//     (ExecStats::memo_fills).  The value is the one the probe would
//     compute, so no objective value changes; only costs do.
//
// Views passed in must come from the evaluator's ViewSpace.

#ifndef MUVE_CORE_VIEW_EVALUATOR_H_
#define MUVE_CORE_VIEW_EVALUATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/exec_context.h"
#include "common/simd/aligned.h"
#include "core/cost_model.h"
#include "core/distance.h"
#include "core/exec_stats.h"
#include "core/score_memo.h"
#include "core/utility.h"
#include "core/view.h"
#include "data/dataset.h"
#include "storage/base_histogram_cache.h"
#include "storage/binned_group_by.h"
#include "storage/fused_scan.h"

namespace muve::common {
class ThreadPool;
}  // namespace muve::common

namespace muve::core {

struct ViewEvaluatorOptions {
  DistanceKind distance = DistanceKind::kEuclidean;

  // Sampling-based approximation (the third optimization family cited in
  // Section II-A alongside sharing and pruning): when < 1, every probe
  // runs over a deterministic uniform row sample of D_Q and D_B of this
  // fraction, trading recommendation fidelity for proportionally cheaper
  // scans.  Objective values become estimates; fidelity is measured by
  // bench/ablate_sampling.
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0x5A3D1E;

  // The base-histogram store and the key prefix of each side.  The
  // Recommender creates a private store per Recommend() call (empty
  // prefixes), or hands in the caller's cross-request handle, and gives
  // it to every pool worker's evaluator — safe because all those
  // evaluators probe identical row sets (same dataset, same sampling
  // draw).  When the store is null the evaluator creates a private
  // cache of default size.  Concurrent identical prewarm passes on the
  // store coalesce into one single-flight scan, charged as
  // ExecStats::fused_coalesced.
  storage::BaseCacheHandle base_cache;

  // Rows per morsel for fused builds through this evaluator; 0 = engine
  // default.  PrewarmBaseHistograms takes the pool explicitly.
  size_t fused_morsel_size = 0;

  // The score memo probes read and fill, or nullptr.  Its values must be
  // this evaluator's own: same view space, row sets and base bits
  // (SearchOptions::score_memo).  Must outlive the evaluator.
  ScoreMemo* score_memo = nullptr;

  // Execution control (deadline / cancellation / row budget), or nullptr
  // for an unbounded run.  The evaluator never aborts a probe mid-flight
  // — in-flight work completes so results stay well-formed — but it (a)
  // charges every row-set traversal into the context's row budget, (b)
  // skips prewarm sides once expired, and (c) lets an expired context
  // abort the prewarm's fused pass between morsels (a probe then fills
  // its pin with an unbounded one-pair build, so the answer is still
  // produced).  The
  // strategies poll the same context at their own boundaries; see
  // common/exec_context.h.  Must outlive the evaluator.
  common::ExecContext* exec = nullptr;
};

class ViewEvaluator {
 public:
  using Options = ViewEvaluatorOptions;

  // `dataset` and `space` must outlive the evaluator.
  ViewEvaluator(const data::Dataset& dataset, const ViewSpace& space,
                Options options = {});
  // Not copyable or movable: the row-set pointers may point at members.
  ViewEvaluator(const ViewEvaluator&) = delete;
  ViewEvaluator& operator=(const ViewEvaluator&) = delete;

  // D(V_{i,b}) (Eq. 2): executes the binned target and comparison queries,
  // normalizes both into distributions, and computes the distance.
  // Charges C_t + C_c + C_d, or nothing on a score-memo hit.  For a
  // categorical dimension `bins` is ignored: the target and comparison
  // group-bys are aligned on the comparison view's group set (the SeeDB
  // setting).
  double EvaluateDeviation(const View& view, int bins);

  // A(V_{i,b}) (Eq. 4): executes the binned target query (and, once per
  // view, the raw target query) and computes the relative-SSE accuracy.
  // Charges C_t + C_a, or nothing on a score-memo hit.  Categorical
  // views have no binning approximation and always score 1.0 (charged as
  // a zero-cost accuracy evaluation).
  double EvaluateAccuracy(const View& view, int bins);

  // The candidate's usability objective: 1/bins for numeric dimensions
  // (Eq. 3), 1/(distinct groups) for categorical ones.
  double CandidateUsability(const View& view, int bins) const;

  // MuVE's probe-order priority rule (Section IV-A3): true when
  //   alpha_A / (C_t + C_a)  >  alpha_D / (C_t + C_c + C_d)
  // under the current cost estimates.  With no observations yet the rule
  // falls back to deviation-first.
  bool AccuracyFirst(const Weights& weights) const;

  const ViewSpace& space() const { return space_; }
  const data::Dataset& dataset() const { return dataset_; }
  // The run's execution-control context (nullptr = unbounded).  The
  // strategies reach it through their evaluator so no search-function
  // signature had to change.
  common::ExecContext* exec() const { return options_.exec; }
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  const CostModel& cost_model() const { return cost_model_; }

  // Fused cache prewarm: ONE fused pass per side (target rows, then
  // comparison rows) builds the base histogram of every base pair that
  // is not cached yet — the whole candidate space costs two row-set
  // traversals instead of |A| x |M| per-pair build scans — and pins every
  // pair's histogram in this evaluator.
  // The pass splits into morsels on `pool` when provided (must not be
  // mid-ParallelFor; the Recommender calls this before any strategy
  // fan-out).  Wall-clock is charged to C_t / C_c respectively and rows
  // to build_rows_scanned, but no per-probe cost-model observation is
  // recorded (a fused pass is not a representative probe) and no query
  // counters move.
  void PrewarmBaseHistograms(common::ThreadPool* pool = nullptr);

  // Clears stats and cost observations (caches are kept: they hold pure
  // data, not accounting state).  Used between benchmark repetitions.
  void ResetAccounting();

  // Row sets all probes scan: the dataset's own when sample_fraction is
  // 1, deterministic samples otherwise.  Exposed (read-only) so tests can
  // assert the sampling invariant sample(D_Q) = D_Q ∩ sample(D_B).
  const storage::RowSet& target_rows() const { return *target_rows_; }
  const storage::RowSet& all_rows() const { return *all_rows_; }

 private:
  struct RawSeries {
    std::vector<double> keys;
    std::vector<double> aggregates;
  };
  using BasePin = std::shared_ptr<const storage::BaseHistogram>;

  // The memo's value of `kind` at (view, bins) when it holds one, else
  // `probe()`, stored into the memo.  Categorical views key b = 1.
  template <typename Probe>
  double Memoized(int kind, const View& view, int bins, Probe&& probe);
  // The uncached probes behind EvaluateDeviation / EvaluateAccuracy.
  double ProbeDeviation(const View& view, int bins);
  double ProbeAccuracy(const View& view, int bins);
  // The binned target result of (view, bins), from the one-entry cache
  // below when the last call asked for the same candidate.
  const storage::BinnedResult& ExecuteBinnedTarget(const View& view,
                                                   int bins);
  storage::BinnedResult ExecuteBinnedComparison(const View& view, int bins);
  double EvaluateCategoricalDeviation(const View& view);
  const RawSeries& RawTargetSeries(const View& view);
  // Normalizes both aggregate series into the reusable aligned
  // distribution buffers (dist_p_ / dist_q_) and returns their distance —
  // the shared tail of every deviation probe.  No per-probe allocation.
  double NormalizedSeriesDistance(const std::vector<double>& target_aggs,
                                  const std::vector<double>& comparison_aggs);

  // The base histogram of `view`'s pair over the target or comparison
  // row set, from this evaluator's pin.  Every read counts one
  // base_cache_hits, except a read whose pin fill built the base, which
  // counts base_builds and its rows instead; wall-clock is charged by
  // the caller (the whole probe lands on the triggering cost kind).
  const storage::BaseHistogram& PinnedBase(const View& view,
                                           bool target_side);
  // Fills an empty pin through a one-pair FusedBuild: one morsel, no
  // ExecContext (a probe that has started completes).  Returns whether
  // the call built the base.  A failed build throws StatusError.
  bool FillPin(int pair, bool target_side, BasePin* pin);
  // Row-scan charging: stats counters plus the exec context's budget.
  void ChargeProbeRows(int64_t rows);
  void ChargeBuildRows(int64_t rows);

  const data::Dataset& dataset_;
  const ViewSpace& space_;
  Options options_;
  // The row sets probes scan: borrowed from the dataset at
  // sample_fraction 1 (no per-worker copy), else the owned samples below.
  const storage::RowSet* target_rows_;
  const storage::RowSet* all_rows_;
  storage::RowSet sampled_target_rows_;
  storage::RowSet sampled_all_rows_;
  ExecStats stats_;
  CostModel cost_model_;

  // Per-view raw target series (accuracy objective input), indexed like
  // ViewSpace::views().
  std::vector<std::optional<RawSeries>> raw_series_;
  // Base-histogram store (shared across workers when handed in via
  // Options::base_cache; private otherwise).  Never null.
  storage::BaseCacheHandle base_cache_;
  // Pinned bases per side, indexed like ViewSpace::base_pairs().
  std::vector<BasePin> target_pins_;
  std::vector<BasePin> comparison_pins_;
  // Reusable fused-scan arena (dictionaries, key arrays, morsel
  // partials): builds through this evaluator stop allocating per build.
  storage::FusedScanScratch fused_scratch_;
  // Reusable 64-byte-aligned distribution buffers for the deviation
  // probes (see NormalizedSeriesDistance); sized to the largest series
  // seen, never shrunk.
  common::simd::AlignedVector<double> dist_p_;
  common::simd::AlignedVector<double> dist_q_;
  // One-entry binned-target cache for within-candidate reuse, keyed by
  // (view index, bins); valid when cached_target_view_ >= 0.
  int cached_target_view_ = -1;
  int cached_target_bins_ = -1;
  storage::BinnedResult cached_target_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_VIEW_EVALUATOR_H_
