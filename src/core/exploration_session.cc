#include "core/exploration_session.h"

#include "common/logging.h"
#include "core/top_k_tracker.h"

namespace muve::core {

common::Result<ExplorationSession> ExplorationSession::Create(
    data::Dataset dataset) {
  MUVE_ASSIGN_OR_RETURN(Recommender recommender,
                        Recommender::Create(std::move(dataset)));
  return ExplorationSession(std::move(recommender));
}

ExplorationSession::ExplorationSession(Recommender recommender)
    : recommender_(std::move(recommender)),
      memo_(std::make_shared<ScoreMemo>(recommender_.space())) {}

common::Status ExplorationSession::Materialize(DistanceKind distance) {
  if (materialized_.contains(distance)) return common::Status::OK();
  // Linear-Linear fully probes every (view, b) candidate, so afterwards
  // the memo holds every score under `distance`.
  SearchOptions options;
  options.horizontal = HorizontalStrategy::kLinear;
  options.vertical = VerticalStrategy::kLinear;
  options.k = 1;
  options.distance = distance;
  options.score_memo = memo_;
  MUVE_ASSIGN_OR_RETURN(const Recommendation rec,
                        recommender_.Recommend(options));
  stats_.Merge(rec.stats);
  materialized_.insert(distance);
  return common::Status::OK();
}

common::Result<std::vector<ScoredView>> ExplorationSession::AllCandidates(
    DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(Materialize(distance));
  const ViewSpace& space = recommender_.space();
  std::vector<ScoredView> out;
  for (const View& view : space.views()) {
    const DimensionInfo& dim = space.dimensions()[view.dimension_index];
    for (int bins = 1; bins <= dim.max_bins; ++bins) {
      const std::optional<double> deviation =
          memo_->Get(ScoreMemo::DeviationKind(distance), view.index, bins);
      const std::optional<double> accuracy =
          memo_->Get(ScoreMemo::AccuracyKind(), view.index, bins);
      MUVE_CHECK(deviation.has_value() && accuracy.has_value())
          << view.Label() << " [b=" << bins << "] was not materialized";
      ScoredView scored;
      scored.view = view;
      scored.bins = bins;
      scored.deviation = *deviation;
      scored.accuracy = *accuracy;
      scored.usability = CandidateUsability(dim, bins);
      out.push_back(std::move(scored));
    }
  }
  return out;
}

common::Result<std::vector<ScoredView>> ExplorationSession::Recommend(
    const Weights& weights, int k, DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(weights.Validate());
  if (k < 1) {
    return common::Status::InvalidArgument("k must be >= 1");
  }
  MUVE_ASSIGN_OR_RETURN(std::vector<ScoredView> candidates,
                        AllCandidates(distance));
  TopKTracker tracker(k, space().views().size());
  for (ScoredView& scored : candidates) {
    scored.utility = Utility(weights, scored.deviation, scored.accuracy,
                             scored.usability);
    tracker.Update(static_cast<size_t>(scored.view.index), scored);
  }
  return tracker.TopK();
}

}  // namespace muve::core
