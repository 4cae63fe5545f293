#include "core/exploration_session.h"

#include "core/top_k_tracker.h"
#include "core/view_evaluator.h"

namespace muve::core {

common::Result<ExplorationSession> ExplorationSession::Create(
    data::Dataset dataset) {
  MUVE_ASSIGN_OR_RETURN(ViewSpace space, ViewSpace::Create(dataset));
  return ExplorationSession(std::move(dataset), std::move(space));
}

common::Status ExplorationSession::Materialize(DistanceKind distance) {
  if (scores_.contains(distance)) return common::Status::OK();

  ViewEvaluator::Options options;
  options.distance = distance;
  ViewEvaluator evaluator(dataset_, space_, options);
  // Materialization probes every (view, b) pair: the base histograms'
  // best case (one fused pass per side, then O(d) per candidate).
  evaluator.PrewarmBaseHistograms();
  std::vector<CandidateScores> all;
  const std::vector<View>& views = space_.views();
  for (size_t i = 0; i < views.size(); ++i) {
    // A categorical dimension's single candidate has max_bins == 1.
    const int max_bins = space_.dimension_info(views[i].dimension).max_bins;
    for (int bins = 1; bins <= max_bins; ++bins) {
      CandidateScores cs;
      cs.view_index = i;
      cs.bins = bins;
      cs.deviation = evaluator.EvaluateDeviation(views[i], bins);
      cs.accuracy = evaluator.EvaluateAccuracy(views[i], bins);
      cs.usability = evaluator.CandidateUsability(views[i], bins);
      all.push_back(cs);
    }
  }

  stats_.Merge(evaluator.stats());
  scores_.emplace(distance, std::move(all));
  return common::Status::OK();
}

common::Result<std::vector<ScoredView>> ExplorationSession::AllCandidates(
    DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(Materialize(distance));
  const std::vector<CandidateScores>& table = scores_.at(distance);
  std::vector<ScoredView> out;
  out.reserve(table.size());
  for (const CandidateScores& cs : table) {
    ScoredView scored;
    scored.view = space_.views()[cs.view_index];
    scored.bins = cs.bins;
    scored.deviation = cs.deviation;
    scored.accuracy = cs.accuracy;
    scored.usability = cs.usability;
    out.push_back(std::move(scored));
  }
  return out;
}

common::Result<std::vector<ScoredView>> ExplorationSession::Recommend(
    const Weights& weights, int k, DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(weights.Validate());
  if (k < 1) {
    return common::Status::InvalidArgument("k must be >= 1");
  }
  MUVE_RETURN_IF_ERROR(Materialize(distance));

  const std::vector<CandidateScores>& table = scores_.at(distance);
  TopKTracker tracker(k, space_.views().size());
  for (const CandidateScores& cs : table) {
    ScoredView scored;
    scored.view = space_.views()[cs.view_index];
    scored.bins = cs.bins;
    scored.deviation = cs.deviation;
    scored.accuracy = cs.accuracy;
    scored.usability = cs.usability;
    scored.utility =
        Utility(weights, cs.deviation, cs.accuracy, cs.usability);
    tracker.Update(cs.view_index, scored);
  }
  return tracker.TopK();
}

}  // namespace muve::core
