// Direct-scan reference for the base-histogram probe path.
//
// Scores (view, b) candidates straight from the row scans —
// storage::BinnedAggregate for the binned target / comparison series and
// storage::GroupByAggregate for the raw target series and categorical
// group-bys — with the library's normalize / distance / accuracy
// functions, and no ViewEvaluator or base histogram in between.  It is
// the differential oracle of tests/core/rebin_differential_test.cc and
// the no-sharing arm of bench/ablate_sharing.

#ifndef MUVE_TESTS_DIRECT_ORACLE_H_
#define MUVE_TESTS_DIRECT_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "core/candidate.h"
#include "core/distance.h"
#include "core/distribution.h"
#include "core/objectives.h"
#include "core/search_options.h"
#include "core/top_k_tracker.h"
#include "core/utility.h"
#include "core/view.h"
#include "data/dataset.h"
#include "storage/binned_group_by.h"
#include "storage/group_by.h"

namespace muve::testutil {

// One view's raw (non-binned) target series: the accuracy objective's
// input, computed once per view.
struct RawSeries {
  std::vector<double> keys;
  std::vector<double> aggregates;
};

inline RawSeries DirectRawSeries(const data::Dataset& ds,
                                 const storage::RowSet& target_rows,
                                 const core::View& view) {
  auto grouped = storage::GroupByAggregate(*ds.table, target_rows,
                                           view.dimension, view.measure,
                                           view.function);
  MUVE_CHECK(grouped.ok()) << grouped.status().ToString();
  RawSeries raw;
  raw.aggregates = grouped->aggregates;
  for (const storage::Value& key : grouped->keys) {
    auto d = key.ToDouble();
    MUVE_CHECK(d.ok()) << d.status().ToString();
    raw.keys.push_back(*d);
  }
  return raw;
}

struct DirectScores {
  double deviation = 0.0;
  double accuracy = 1.0;
  int64_t rows_scanned = 0;  // the two per-candidate scans
};

// D and A of one candidate.  A categorical dimension ignores `bins` and
// `raw`: the target group-by is aligned onto the comparison's groups and
// the accuracy is 1.
inline DirectScores ScoreDirect(const data::Dataset& ds,
                                const core::ViewSpace& space,
                                const storage::RowSet& target_rows,
                                const storage::RowSet& all_rows,
                                const core::View& view, int bins,
                                core::DistanceKind distance,
                                const RawSeries& raw) {
  const storage::Table& table = *ds.table;
  const core::DimensionInfo& dim = space.dimension_info(view.dimension);
  DirectScores scores;
  scores.rows_scanned =
      static_cast<int64_t>(target_rows.size() + all_rows.size());
  if (dim.categorical) {
    auto comparison = storage::GroupByAggregate(
        table, all_rows, view.dimension, view.measure, view.function);
    auto target = storage::GroupByAggregate(
        table, target_rows, view.dimension, view.measure, view.function);
    MUVE_CHECK(comparison.ok() && target.ok());
    std::vector<double> aligned(comparison->num_groups(), 0.0);
    for (size_t t = 0; t < target->num_groups(); ++t) {
      for (size_t c = 0; c < comparison->num_groups(); ++c) {
        if (comparison->keys[c] == target->keys[t]) {
          aligned[c] = target->aggregates[t];
        }
      }
    }
    scores.deviation = core::Distance(
        distance, core::NormalizeToDistribution(aligned),
        core::NormalizeToDistribution(comparison->aggregates));
    return scores;
  }
  auto target = storage::BinnedAggregate(table, target_rows, view.dimension,
                                         view.measure, view.function, bins,
                                         dim.lo, dim.hi);
  auto comparison = storage::BinnedAggregate(table, all_rows, view.dimension,
                                             view.measure, view.function,
                                             bins, dim.lo, dim.hi);
  MUVE_CHECK(target.ok() && comparison.ok());
  scores.deviation = core::Distance(
      distance, core::NormalizeToDistribution(target->aggregates),
      core::NormalizeToDistribution(comparison->aggregates));
  scores.accuracy =
      core::AccuracyFromSeries(raw.keys, raw.aggregates, *target);
  return scores;
}

struct DirectTopK {
  std::vector<core::ScoredView> views;
  int64_t rows_scanned = 0;
};

// Exhaustive Linear-Linear over the dataset's own row sets: every view
// at every bin count 1..B, ranked by the Recommender's per-view-best
// tracker (ties keep the smaller b, as the linear sweep does).
inline DirectTopK DirectLinearLinear(const data::Dataset& ds,
                                     const core::ViewSpace& space,
                                     const core::SearchOptions& options) {
  core::TopKTracker tracker(options.k, space.views().size());
  DirectTopK out;
  for (size_t i = 0; i < space.views().size(); ++i) {
    const core::View& view = space.views()[i];
    const core::DimensionInfo& dim = space.dimension_info(view.dimension);
    RawSeries raw;
    if (!dim.categorical) {
      raw = DirectRawSeries(ds, ds.target_rows, view);
      out.rows_scanned += static_cast<int64_t>(ds.target_rows.size());
    }
    for (int bins = 1; bins <= dim.max_bins; ++bins) {
      const DirectScores s = ScoreDirect(ds, space, ds.target_rows,
                                         ds.all_rows, view, bins,
                                         options.distance, raw);
      out.rows_scanned += s.rows_scanned;
      core::ScoredView scored;
      scored.view = view;
      scored.bins = bins;
      scored.deviation = s.deviation;
      scored.accuracy = s.accuracy;
      scored.usability =
          dim.categorical ? 1.0 / static_cast<double>(dim.distinct_values)
                          : core::Usability(bins);
      scored.utility = core::Utility(options.weights, scored.deviation,
                                     scored.accuracy, scored.usability);
      tracker.Update(i, scored);
    }
  }
  out.views = tracker.TopK();
  return out;
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_DIRECT_ORACLE_H_
