// Interactive exploration sessions: re-rank without re-executing.
//
// The deviation and accuracy of a binned view do not depend on the alpha
// weights or on k — only on the data, the view, the bin count, and the
// distance function.  An analyst who tunes weights interactively (the
// user-defined-weights workflow of Section III-B) therefore should not
// pay query-execution costs per adjustment.  ExplorationSession
// materializes the full (view, bins) -> (D, A) score table once per
// distance function (one exhaustive pass over base histograms) and
// answers any subsequent (weights, k) recommendation by pure re-ranking.
//
// Recommendations equal the exhaustive Linear-Linear scheme's for every
// weight setting; the session trades MuVE's per-query pruning for
// across-query reuse.

#ifndef MUVE_CORE_EXPLORATION_SESSION_H_
#define MUVE_CORE_EXPLORATION_SESSION_H_

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/candidate.h"
#include "core/distance.h"
#include "core/exec_stats.h"
#include "core/recommender.h"
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

  // Every materialized candidate's objective scores for `distance`
  // (materializing on first use).  The returned ScoredViews carry
  // deviation/accuracy/usability; `utility` is left 0 because it is
  // weight-dependent.  Used by the Pareto-front analysis.
  common::Result<std::vector<ScoredView>> AllCandidates(
      DistanceKind distance = DistanceKind::kEuclidean);

  // Cumulative execution statistics across all materializations.
  const ExecStats& stats() const { return stats_; }

  // Number of distance functions materialized so far.
  size_t materialized_distances() const { return scores_.size(); }

  const ViewSpace& space() const { return space_; }

 private:
  // Objective scores of one candidate; utility is weight-dependent and
  // computed at ranking time.
  struct CandidateScores {
    size_t view_index = 0;
    int bins = 1;
    double deviation = 0.0;
    double accuracy = 0.0;
    double usability = 0.0;
  };

  ExplorationSession(data::Dataset dataset, ViewSpace space)
      : dataset_(std::move(dataset)), space_(std::move(space)) {}

  common::Status Materialize(DistanceKind distance);

  data::Dataset dataset_;
  ViewSpace space_;
  std::map<DistanceKind, std::vector<CandidateScores>> scores_;
  ExecStats stats_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_EXPLORATION_SESSION_H_
