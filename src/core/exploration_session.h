// Interactive exploration sessions: re-rank without re-executing.
//
// The deviation and accuracy of a binned view do not depend on the alpha
// weights or on k — only on the data, the view, the bin count, and the
// distance function.  An analyst who tunes weights interactively (the
// user-defined-weights workflow of Section III-B) therefore should not
// pay query-execution costs per adjustment.  ExplorationSession runs one
// Linear-Linear recommendation per distance function, which probes every
// (view, bins) candidate into the session's score memo
// (core/score_memo.h), and answers any subsequent (weights, k)
// recommendation by re-ranking the memo's scores.
//
// Recommendations equal the exhaustive Linear-Linear scheme's for every
// weight setting; the session trades MuVE's per-query pruning for
// across-query reuse.

#ifndef MUVE_CORE_EXPLORATION_SESSION_H_
#define MUVE_CORE_EXPLORATION_SESSION_H_

#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "core/candidate.h"
#include "core/distance.h"
#include "core/exec_stats.h"
#include "core/recommender.h"
#include "core/score_memo.h"
#include "core/view.h"
#include "data/dataset.h"

namespace muve::core {

class ExplorationSession {
 public:
  static common::Result<ExplorationSession> Create(data::Dataset dataset);

  // Top-k views under `weights` (descending utility, distinct views).
  // The first call per distance materializes all objective scores; later
  // calls re-rank in microseconds.  k >= 1; weights must validate.
  common::Result<std::vector<ScoredView>> Recommend(
      const Weights& weights, int k,
      DistanceKind distance = DistanceKind::kEuclidean);

  // Every candidate's objective scores for `distance` (materializing on
  // first use), in (view, bins) order.  The returned ScoredViews carry
  // deviation/accuracy/usability; `utility` is left 0 because it is
  // weight-dependent.  Used by the Pareto-front analysis.
  common::Result<std::vector<ScoredView>> AllCandidates(
      DistanceKind distance = DistanceKind::kEuclidean);

  // Cumulative execution statistics across all materializations.
  const ExecStats& stats() const { return stats_; }

  // Number of distance functions materialized so far.
  size_t materialized_distances() const { return materialized_.size(); }

  const ViewSpace& space() const { return recommender_.space(); }

 private:
  explicit ExplorationSession(Recommender recommender);

  common::Status Materialize(DistanceKind distance);

  Recommender recommender_;
  std::shared_ptr<ScoreMemo> memo_;
  std::set<DistanceKind> materialized_;
  ExecStats stats_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_EXPLORATION_SESSION_H_
