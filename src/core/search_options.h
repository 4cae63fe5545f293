// Configuration surface for the search strategies (Section IV / V).
//
// A recommendation run is described by a SearchH-SearchV combination
// (paper naming: Linear-Linear, HC-Linear, MuVE-Linear, MuVE-MuVE), an
// optional range-partitioning of the bin domain (additive step / geometric
// — the paper's SearchH(A) / SearchH(G)), and an optional vertical
// approximation (view refinement SearchV(R) / view skipping SearchV(S)).

#ifndef MUVE_CORE_SEARCH_OPTIONS_H_
#define MUVE_CORE_SEARCH_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/exec_context.h"
#include "common/status.h"
#include "core/distance.h"
#include "core/score_memo.h"
#include "core/utility.h"
#include "storage/base_histogram_cache.h"

namespace muve::core {

enum class HorizontalStrategy { kLinear, kHillClimbing, kMuve };
enum class VerticalStrategy { kLinear, kMuve };
enum class VerticalApproximation { kNone, kRefinement, kSkipping };
enum class PartitionKind { kAdditive, kGeometric };

// How MuVE's incremental evaluation orders the two expensive probes.
// kPriorityRule is the paper's cost/benefit rule; the fixed orders exist
// for the probe-order ablation.
enum class ProbeOrderPolicy { kPriorityRule, kDeviationFirst, kAccuracyFirst };

const char* HorizontalStrategyName(HorizontalStrategy s);
const char* VerticalStrategyName(VerticalStrategy s);

// A SearchH-SearchV combination.
struct Scheme {
  HorizontalStrategy horizontal;
  VerticalStrategy vertical;
};

// The one scheme-name table, case-insensitive: linear-linear, hc-linear,
// muve-linear and muve-muve, with the SQL RECOMMEND spellings LINEAR,
// HC, MUVE_LINEAR and MUVE as aliases.  nullopt for any other name; each
// front end words its own error.
std::optional<Scheme> SchemeFromName(std::string_view name);

// priority | deviation-first | accuracy-first, case-insensitive.
std::optional<ProbeOrderPolicy> ProbeOrderFromName(std::string_view name);

// The bin-domain range partitioning (Section IV-C3).
struct PartitionSpec {
  PartitionKind kind = PartitionKind::kAdditive;
  int step = 1;  // additive increment; ignored for geometric

  bool IsDefault() const {
    return kind == PartitionKind::kAdditive && step == 1;
  }
};

struct SearchOptions {
  Weights weights = Weights::PaperDefault();
  int k = 5;
  DistanceKind distance = DistanceKind::kEuclidean;

  HorizontalStrategy horizontal = HorizontalStrategy::kMuve;
  VerticalStrategy vertical = VerticalStrategy::kMuve;
  VerticalApproximation approximation = VerticalApproximation::kNone;
  PartitionSpec partition;

  // View refinement's fixed first-pass binning `def` (Section IV-C1).
  int refinement_default_bins = 4;

  // Sampling-based approximation (Section II-A's third optimization
  // family): probes scan a deterministic uniform row sample of this
  // fraction of D_Q and D_B.  1.0 = exact.  Composable with any scheme;
  // recommendations become estimates (see bench/ablate_sampling).
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0x5A3D1E;

  // Worker threads for the shared work-stealing pool; every scheme
  // (vertical Linear, MuVE-MuVE, refinement, skipping) accepts > 1.
  // 1 = serial.  For exact schemes the parallel top-k matches the serial
  // one (bitwise for non-pruning schemes; identical utilities for MuVE's
  // pruned searches, whose threshold snapshots may lag under concurrency
  // and prune less, never unsoundly more).  The cost metric still sums
  // per-worker work (Eq. 7 measures total processing, not latency); see
  // Recommender's threading-model comment.
  int num_threads = 1;

  // Every probe a base histogram can serve — numeric dimension, SUM /
  // COUNT / AVG / STD / VAR over a numeric measure — is served from one
  // (the sharing optimization of Section II-A, storage/
  // base_histogram_cache.h).  Before any strategy runs, ONE fused pass
  // per side (D_Q, D_B) builds the base histogram of every such (A, M)
  // pair, split into ~64K-row morsels across the worker pool; each
  // (view, b) probe afterwards is a prefix-sum coarsening that touches no
  // rows.  MIN/MAX, categorical dimensions and COUNT over a string
  // measure scan directly.  The split follows from the view, not from an
  // option.
  //
  // Rows per morsel for fused builds; 0 = engine default (64K).  The
  // morsel partitioning fixes the floating-point association of fused
  // sums, so changing it can shift AVG/STD/VAR results within FP
  // tolerance; thread count never does.
  size_t fused_morsel_size = 0;

  // Cross-request sharing (the serving-path optimization): a base-
  // histogram store OWNED BY THE CALLER and reused across Recommend()
  // calls, so the second identical request's prewarm is all cache hits
  // instead of two fused scans.  The handle names the store and the key
  // prefix of each side; a bare store converts to a handle with empty
  // prefixes.  muved hands in its one server-wide store, with a
  // comparison prefix per table version (D_B does not depend on the
  // predicate) and a target prefix per predicate.  Hard requirement:
  // every run handed one prefix must probe, on that side, one row set or
  // an appended version of it (the store tells versions apart by row
  // count) — same table, same predicate, no sampling — so Recommend()
  // ignores the handle (fresh per-run store, as before) when
  // sample_fraction < 1.0.  The histograms a run reads back
  // are identical to the ones it would have built (pinned by
  // tests/storage/cross_query_cache_test.cc), so the top-k does not
  // change; only the stats blocks' build/hit split does.  Concurrent
  // identical fused passes on the store coalesce into one single-flight
  // scan (ExecStats::fused_coalesced counts the parked sides).  Worker
  // evaluators pin the bases they read, so a run reads the store once
  // per (pair, side, worker) and no probe takes its lock.  A null store
  // (default) = no sharing.
  storage::BaseCacheHandle shared_base_cache;

  // Cross-request score reuse: a memo OWNED BY THE CALLER, laid out for
  // this recommender's view space, that every probe reads before it
  // runs and fills after (core/score_memo.h).  A filled slot skips
  // C_t / C_c / C_d / C_a; the search path, and so the top-k, does not
  // change.  muved keeps one per registry entry (dataset, data_epoch,
  // canonical predicate).  Hard requirement: every run handed one memo
  // probes the same table version, predicate and morsel size, so each
  // slot holds the bits its probe would compute — which is why
  // Recommend() ignores the memo when sample_fraction < 1.0.  A memo
  // laid out for another view space is an InvalidArgument.  Null
  // (default) = every probe runs.
  std::shared_ptr<ScoreMemo> score_memo;

  // --- Execution control (common/exec_context.h) ---
  //
  // A bounded run stops *starting* probes once any bound trips and
  // returns the best top-k found so far, flagged in
  // ExecStats::completeness with the first cause.  Guarantee: a run
  // whose bounds never trip is bit-identical to the unbounded run.

  // Wall-clock deadline in milliseconds from the start of Recommend().
  // < 0 (default) = unbounded; 0 = already expired (useful for testing
  // the empty-but-valid degraded path); the deadline is polled at work
  // boundaries (per view, per bin count, per round, per morsel), so
  // overshoot is bounded by one probe, not one view.
  double deadline_ms = -1.0;

  // Cooperative cancellation: the caller keeps the token and calls
  // Cancel() (e.g. the user navigated away); the search observes it at
  // the next boundary poll.  nullptr = not cancellable.
  std::shared_ptr<common::CancellationToken> cancel_token;

  // Caps total rows scanned (build + probe passes) across all workers.
  // 0 = unbounded.  Best-effort under concurrency: in-flight passes
  // complete before every worker observes the trip.
  int64_t max_rows_scanned = 0;

  // Caps the base-histogram cache's resident bytes (0 = the cache's own
  // default, 64 MiB).  Evictions past the cap degrade to rebuilds, never
  // to errors.
  size_t max_cache_bytes = 0;

  // Hill Climbing's random starting point.
  uint64_t hc_seed = 0x5EEDB;

  // Ablation switches for MuVE's two pruning techniques (both on by
  // default; Linear and HC ignore them).
  bool enable_early_termination = true;
  bool enable_incremental_evaluation = true;
  ProbeOrderPolicy probe_order = ProbeOrderPolicy::kPriorityRule;

  // Checks weight validity, k >= 1, step >= 1, and that vertical MuVE is
  // paired with horizontal MuVE (the paper's MuVE-MuVE integration).
  common::Status Validate() const;

  // Paper naming, e.g. "MuVE(G)-Linear(R)".
  std::string SchemeName() const;
};

}  // namespace muve::core

#endif  // MUVE_CORE_SEARCH_OPTIONS_H_
