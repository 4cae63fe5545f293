#include "core/recommender.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "core/horizontal_search.h"
#include "core/partitioner.h"
#include "core/top_k_tracker.h"

namespace muve::core {

namespace {

// Bin-count value of the r-th position of a partitioned domain; every
// dimension's domain is a truncated prefix of this common sequence, which
// is what lets MuVE-MuVE's round-robin share one S value per round.
int SequenceBins(const PartitionSpec& spec, size_t position) {
  if (spec.kind == PartitionKind::kGeometric) {
    return static_cast<int>(int64_t{1} << position);
  }
  return 1 + static_cast<int>(position) * spec.step;
}

// Per-view RNG for Hill Climbing: seeding by view index makes the random
// start independent of evaluation order, so serial and parallel runs of
// HC-based schemes recommend identically.
common::Rng ViewRng(const SearchOptions& options, size_t view_index) {
  return common::Rng(options.hc_seed ^
                     (0x9E3779B97F4A7C15ULL * (view_index + 1)));
}

// One ViewEvaluator per pool worker: the evaluator's stats accounting and
// caches are single-threaded by design, so each lane gets its own and the
// recommender merges the ExecStats blocks at the end.  Worker 0's
// evaluator doubles as the "main" evaluator for the serial portions of a
// strategy (grouping passes, refinement's second phase).
class WorkerSet {
 public:
  WorkerSet(size_t num_workers, const data::Dataset& dataset,
            const ViewSpace& space, const ViewEvaluator::Options& options)
      : pool_(num_workers) {
    evaluators_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      evaluators_.push_back(
          std::make_unique<ViewEvaluator>(dataset, space, options));
    }
  }

  common::ThreadPool& pool() { return pool_; }
  ViewEvaluator& evaluator(size_t worker) { return *evaluators_[worker]; }
  ViewEvaluator& main() { return *evaluators_[0]; }
  size_t num_workers() const { return evaluators_.size(); }

  // Per-worker work totals folded into one block; num_workers is set by
  // the caller-visible width, not the max of the per-lane defaults.
  ExecStats MergedStats() const {
    ExecStats merged;
    for (const auto& evaluator : evaluators_) {
      merged.Merge(evaluator->stats());
    }
    merged.num_workers = static_cast<int>(evaluators_.size());
    merged.simd_dispatch = common::simd::ActiveLevelName();
    return merged;
  }

 private:
  common::ThreadPool pool_;
  std::vector<std::unique_ptr<ViewEvaluator>> evaluators_;
};

// Vertical Linear: decoupled horizontal search per view (Section IV-B).
// Covers Linear-Linear, HC-Linear, and MuVE-Linear.  Per-view searches
// share nothing (matching the serial semantics, which never shared a
// threshold across views either), so parallel runs are bitwise-identical
// to serial ones — recommendations AND probe counters.
std::vector<ScoredView> VerticalLinear(WorkerSet& workers,
                                       const ViewSpace& space,
                                       const SearchOptions& options) {
  const std::vector<View>& views = space.views();
  SharedTopKTracker tracker(options.k, views.size());
  workers.pool().ParallelFor(
      views.size(), [&](size_t worker, size_t i) {
        ViewEvaluator& evaluator = workers.evaluator(worker);
        ExecCompleteness& comp = evaluator.stats().completeness;
        const View& view = views[i];
        const DimensionInfo& dim = space.dimensions()[view.dimension_index];
        const std::vector<int> domain =
            BinDomain(options.partition, dim.max_bins);
        // Boundary poll: an expired run skips whole views (the cheapest
        // unit of work not yet started); views already in flight finish
        // their own truncation below.
        if (common::Expired(evaluator.exec())) {
          comp.degraded = true;
          comp.bins_pruned_by_deadline += static_cast<int64_t>(domain.size());
          return;
        }
        common::Rng rng = ViewRng(options, i);
        const HorizontalResult result = RunHorizontalSearch(
            evaluator, view, domain, dim.max_bins, options, rng);
        if (result.truncated) {
          comp.degraded = true;
          comp.bins_pruned_by_deadline += result.bins_skipped;
        } else {
          ++comp.views_fully_searched;
        }
        if (result.best.has_value()) tracker.Update(i, *result.best);
      });
  return tracker.TopK();
}

// Vertical MuVE (MuVE-MuVE): round-robin the views' S-lists with the
// shared top-k threshold (Section IV-B).  Rounds stay sequential — the
// round order IS the S-list interleaving — but within a round every
// view's candidate evaluates in parallel against the shared tracker's
// threshold snapshot.
std::vector<ScoredView> VerticalMuve(WorkerSet& workers,
                                     const ViewSpace& space,
                                     const SearchOptions& options) {
  const std::vector<View>& views = space.views();
  SharedTopKTracker tracker(options.k, views.size());

  // Precompute per-view domains (charged to the main evaluator).
  std::vector<std::vector<int>> domains;
  domains.reserve(views.size());
  size_t max_len = 0;
  for (const View& view : views) {
    const DimensionInfo& dim = space.dimensions()[view.dimension_index];
    domains.push_back(BinDomain(options.partition, dim.max_bins));
    max_len = std::max(max_len, domains.back().size());
    ++workers.main().stats().views_searched;
  }

  std::vector<size_t> round_views;
  round_views.reserve(views.size());
  // Degradation accounting: the round loop IS the paper's S-list walk,
  // so stopping between rounds (or skipping in-round candidates) leaves
  // a valid anytime prefix of the exact search.
  std::atomic<bool> degraded{false};
  for (size_t r = 0; r < max_len; ++r) {
    const int bins_r = SequenceBins(options.partition, r);
    // Boundary poll per round: on expiry, charge every not-yet-walked
    // S-list entry as deadline-pruned and stop.
    if (common::Expired(workers.main().exec())) {
      int64_t remaining = 0;
      for (const std::vector<int>& domain : domains) {
        if (r < domain.size()) {
          remaining += static_cast<int64_t>(domain.size() - r);
        }
      }
      ExecCompleteness& comp = workers.main().stats().completeness;
      comp.degraded = true;
      comp.bins_pruned_by_deadline += remaining;
      degraded.store(true, std::memory_order_relaxed);
      break;
    }
    // Global early termination: every candidate from this round on (any
    // view) has usability <= 1/bins_r.
    if (options.enable_early_termination &&
        tracker.Threshold() >=
            UtilityUpperBound(options.weights, Usability(bins_r))) {
      ++workers.main().stats().early_terminations;
      break;
    }
    round_views.clear();
    for (size_t i = 0; i < views.size(); ++i) {
      if (r < domains[i].size()) round_views.push_back(i);
    }
    workers.pool().ParallelFor(
        round_views.size(), [&](size_t worker, size_t j) {
          ViewEvaluator& evaluator = workers.evaluator(worker);
          // In-round poll: expiry mid-round skips the remaining
          // candidates of THIS round; the round loop then stops at its
          // own boundary check.
          if (common::Expired(evaluator.exec())) {
            ExecCompleteness& comp = evaluator.stats().completeness;
            comp.degraded = true;
            ++comp.bins_pruned_by_deadline;
            degraded.store(true, std::memory_order_relaxed);
            return;
          }
          const size_t i = round_views[j];
          MUVE_DCHECK(domains[i][r] == bins_r);
          const CandidateResult cand = EvaluateCandidate(
              evaluator, views[i], domains[i][r], options,
              tracker.Threshold(), /*allow_pruning=*/true);
          if (cand.outcome == CandidateResult::Outcome::kFullyEvaluated) {
            tracker.Update(i, cand.scored);
          }
        });
  }
  if (!degraded.load(std::memory_order_relaxed)) {
    // The walk ended the way the unbounded walk would have (domains
    // exhausted or global early termination): every view completed.
    workers.main().stats().completeness.views_fully_searched +=
        static_cast<int64_t>(views.size());
  }
  return tracker.TopK();
}

// View refinement (Section IV-C1): score every view at `def` bins, pick
// the top-k, then refine only those k with a full horizontal search.  The
// first pass fans out per view (threshold snapshots keep MuVE's pruning
// live across workers); the second pass refines only k views and stays
// serial on the main evaluator, preserving the legacy shared-RNG behavior
// for Hill Climbing.
std::vector<ScoredView> VerticalRefinement(WorkerSet& workers,
                                           const ViewSpace& space,
                                           const SearchOptions& options,
                                           common::Rng& rng) {
  const std::vector<View>& views = space.views();
  SharedTopKTracker tracker(options.k, views.size());
  const bool muve_pruning = options.horizontal == HorizontalStrategy::kMuve;

  workers.pool().ParallelFor(
      views.size(), [&](size_t worker, size_t i) {
        ViewEvaluator& evaluator = workers.evaluator(worker);
        // Boundary poll per first-pass probe.
        if (common::Expired(evaluator.exec())) {
          ExecCompleteness& comp = evaluator.stats().completeness;
          comp.degraded = true;
          ++comp.bins_pruned_by_deadline;
          return;
        }
        const DimensionInfo& dim = space.dimensions()[views[i].dimension_index];
        const int def = std::min(options.refinement_default_bins, dim.max_bins);
        const CandidateResult cand = EvaluateCandidate(
            evaluator, views[i], def, options,
            tracker.Threshold(), muve_pruning);
        if (cand.outcome == CandidateResult::Outcome::kFullyEvaluated) {
          tracker.Update(i, cand.scored);
        }
      });

  std::vector<ScoredView> selected = tracker.TopK();
  std::vector<ScoredView> refined;
  refined.reserve(selected.size());
  ExecCompleteness& main_comp = workers.main().stats().completeness;
  for (const ScoredView& sv : selected) {
    const DimensionInfo& dim = space.dimensions()[sv.view.dimension_index];
    const std::vector<int> domain = BinDomain(options.partition, dim.max_bins);
    // Boundary poll per refinement: an expired run keeps the first-pass
    // def-bin score for the remaining selections — still a valid
    // refinement answer, just unrefined.
    if (common::Expired(workers.main().exec())) {
      main_comp.degraded = true;
      main_comp.bins_pruned_by_deadline += static_cast<int64_t>(domain.size());
      refined.push_back(sv);
      continue;
    }
    const HorizontalResult result = RunHorizontalSearch(
        workers.main(), sv.view, domain, dim.max_bins, options, rng);
    if (result.truncated) {
      main_comp.degraded = true;
      main_comp.bins_pruned_by_deadline += result.bins_skipped;
    } else {
      ++main_comp.views_fully_searched;
    }
    // A full horizontal search always finds at least the def-bin utility.
    refined.push_back(result.best.has_value() ? *result.best : sv);
  }
  std::sort(refined.begin(), refined.end(),
            [](const ScoredView& a, const ScoredView& b) {
              return a.utility > b.utility;
            });
  return refined;
}

// View skipping (Section IV-C2): one horizontal search per dimension; its
// optimal bin count is assigned to every view sharing that dimension.
// Dimensions are independent batches and fan out across workers; Hill
// Climbing seeds its random start from the representative's view index
// (not a shared sequential RNG), so results are thread-count invariant.
std::vector<ScoredView> VerticalSkipping(WorkerSet& workers,
                                         const ViewSpace& space,
                                         const SearchOptions& options) {
  const std::vector<View>& views = space.views();
  SharedTopKTracker tracker(options.k, views.size());
  const bool muve_pruning = options.horizontal == HorizontalStrategy::kMuve;

  // Views grouped by dimension, preserving order; the group's first view
  // is the arbitrarily-selected representative.
  std::unordered_map<std::string, std::vector<size_t>> groups;
  std::vector<std::string> dimension_order;
  for (size_t i = 0; i < views.size(); ++i) {
    auto [it, inserted] = groups.try_emplace(views[i].dimension);
    if (inserted) dimension_order.push_back(views[i].dimension);
    it->second.push_back(i);
  }

  workers.pool().ParallelFor(
      dimension_order.size(), [&](size_t worker, size_t d) {
        ViewEvaluator& evaluator = workers.evaluator(worker);
        ExecCompleteness& comp = evaluator.stats().completeness;
        const std::vector<size_t>& group = groups[dimension_order[d]];
        const DimensionInfo& dim =
            space.dimensions()[views[group.front()].dimension_index];
        const std::vector<int> domain =
            BinDomain(options.partition, dim.max_bins);

        // Boundary poll per dimension: skipping one dimension skips its
        // representative search AND the per-member probes.
        if (common::Expired(evaluator.exec())) {
          comp.degraded = true;
          comp.bins_pruned_by_deadline += static_cast<int64_t>(
              domain.size() + (group.size() - 1));
          return;
        }
        const size_t rep = group.front();
        common::Rng rng = ViewRng(options, rep);
        const HorizontalResult rep_result = RunHorizontalSearch(
            evaluator, views[rep], domain, dim.max_bins, options, rng);
        if (rep_result.truncated) {
          comp.degraded = true;
          comp.bins_pruned_by_deadline += rep_result.bins_skipped;
        } else {
          ++comp.views_fully_searched;
        }
        if (!rep_result.best.has_value()) return;
        tracker.Update(rep, *rep_result.best);
        const int opt_bins = rep_result.best->bins;

        for (size_t j = 1; j < group.size(); ++j) {
          // Boundary poll per member probe.
          if (common::Expired(evaluator.exec())) {
            comp.degraded = true;
            comp.bins_pruned_by_deadline +=
                static_cast<int64_t>(group.size() - j);
            return;
          }
          const size_t idx = group[j];
          const CandidateResult cand =
              EvaluateCandidate(evaluator, views[idx], opt_bins, options,
                                tracker.Threshold(), muve_pruning);
          if (cand.outcome == CandidateResult::Outcome::kFullyEvaluated) {
            tracker.Update(idx, cand.scored);
          }
          ++comp.views_fully_searched;
        }
      });
  return tracker.TopK();
}

}  // namespace

double Recommendation::TotalUtility() const {
  double total = 0.0;
  for (const ScoredView& v : views) total += v.utility;
  return total;
}

std::string Recommendation::ToString() const {
  std::ostringstream out;
  out << scheme << " top-" << views.size() << ":\n";
  for (size_t i = 0; i < views.size(); ++i) {
    out << "  " << (i + 1) << ". " << views[i].ToString() << "\n";
  }
  out << "  " << stats.ToString();
  return out.str();
}

common::Result<Recommender> Recommender::Create(data::Dataset dataset) {
  MUVE_ASSIGN_OR_RETURN(ViewSpace space, ViewSpace::Create(dataset));
  return Recommender(std::move(dataset), std::move(space));
}

common::Result<Recommendation> Recommender::Recommend(
    const SearchOptions& options) const {
  MUVE_RETURN_IF_ERROR(options.Validate());

  // Execution control for this run: one context shared (by pointer) with
  // every worker evaluator, the strategies' boundary polls, and the fused
  // scan engine.  The deadline clock starts HERE — option validation is
  // the only work not covered by it.  Unbounded when no knob is set, in
  // which case every poll is a single relaxed load.
  common::ExecContext ctx;
  if (options.deadline_ms >= 0.0) {
    ctx.SetDeadlineAfterMillis(options.deadline_ms);
  }
  if (options.cancel_token != nullptr) {
    ctx.SetCancellationToken(options.cancel_token);
  }
  if (options.max_rows_scanned > 0) {
    ctx.SetRowBudget(options.max_rows_scanned);
  }

  if (options.score_memo != nullptr && !options.score_memo->Fits(space_)) {
    return common::Status::InvalidArgument(
        "score_memo was laid out for another view space");
  }

  ViewEvaluator::Options eval_options;
  eval_options.distance = options.distance;
  eval_options.sample_fraction = options.sample_fraction;
  eval_options.sample_seed = options.sample_seed;
  eval_options.fused_morsel_size = options.fused_morsel_size;
  eval_options.exec = &ctx;
  if (options.shared_base_cache.cache != nullptr &&
      options.sample_fraction >= 1.0) {
    // Cross-request sharing: the caller's store outlives this run, so a
    // warm run's prewarm is all hits.  Valid only when every run on the
    // store probes identical row sets — sampling draws a run-local
    // subset, so sampled runs fall through to a private store.
    eval_options.base_cache = options.shared_base_cache;
  } else {
    // ONE store per run, shared by every worker evaluator: all workers
    // probe identical row sets (same dataset + sampling draw), so a
    // histogram built by any lane serves them all.
    storage::BaseHistogramCache::Options cache_options;
    if (options.max_cache_bytes > 0) {
      cache_options.max_bytes = options.max_cache_bytes;
    }
    eval_options.base_cache =
        std::make_shared<storage::BaseHistogramCache>(cache_options);
  }
  // A sampled run's scores are estimates over a run-local draw: they
  // neither read nor fill the caller's memo.
  if (options.sample_fraction >= 1.0) {
    eval_options.score_memo = options.score_memo.get();
  }

  // More workers than views can never help; everything degrades to the
  // serial inline path at one worker.
  const size_t num_workers = std::min<size_t>(
      static_cast<size_t>(options.num_threads),
      std::max<size_t>(space_.views().size(), 1));
  WorkerSet workers(num_workers, dataset_, space_, eval_options);
  common::Rng rng(options.hc_seed);

  Recommendation rec;
  rec.scheme = options.SchemeName();
  // Worker-task exceptions (third-party distance callbacks, injected
  // faults) are captured by the pool and rethrown here on the calling
  // thread; convert them to the library's Status idiom so Recommend()
  // never leaks an exception OR terminates the process.  The prewarm
  // fan-out runs the same pool, so it sits inside the same guard.
  try {
    // Fused prewarm: ONE morsel-parallel pass per side fills the shared
    // cache with every eligible (A, M) base histogram before any strategy
    // probes.  Must run here — before the strategy fan-out — because
    // ParallelFor is not reentrant, so builds triggered inside worker
    // lanes cannot themselves use the pool.
    workers.main().PrewarmBaseHistograms(&workers.pool());
    switch (options.approximation) {
      case VerticalApproximation::kRefinement:
        rec.views = VerticalRefinement(workers, space_, options, rng);
        break;
      case VerticalApproximation::kSkipping:
        rec.views = VerticalSkipping(workers, space_, options);
        break;
      case VerticalApproximation::kNone:
        if (options.vertical == VerticalStrategy::kMuve) {
          rec.views = VerticalMuve(workers, space_, options);
        } else {
          rec.views = VerticalLinear(workers, space_, options);
        }
        break;
    }
  } catch (const common::StatusError& e) {
    // Typed transport (e.g. a base-histogram build failing on a real or
    // injected I/O fault): unwrap the original Status so callers see the
    // true cause, not a generic kInternal.
    return e.status();
  } catch (const std::exception& e) {
    return common::Status::Internal(std::string("search worker failed: ") +
                                    e.what());
  } catch (...) {
    return common::Status::Internal("search worker failed: unknown exception");
  }
  rec.stats = workers.MergedStats();
  // Completeness finalization: degradation only ever happens after the
  // context expired, so the first cause recorded by the context IS the
  // run's degradation code.  A run whose deadline expired after its last
  // probe is complete, not degraded — `degraded` comes from actual skips.
  if (rec.stats.completeness.degraded) {
    rec.stats.completeness.status = ctx.expiry_code();
  }
  // One-off setup costs measured when the dataset was assembled (load +
  // predicate filtering).  Reported, not added to TotalCostMillis(): the
  // paper's C covers only the four per-probe components.
  rec.stats.predicate_rows_filtered = dataset_.predicate_rows_filtered;
  rec.stats.chunks_skipped = dataset_.chunks_skipped;
  rec.stats.setup_time_ms = dataset_.setup_time_ms;
  return rec;
}

}  // namespace muve::core
