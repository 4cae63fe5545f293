// View model (Section II-A / III-A).
//
// A non-binned view V_i is the triple (A, M, F): group the analyst's data
// by dimension A and aggregate measure M with function F.  A binned view
// V_{i,b} additionally fixes the number of equi-width bins b over A's
// range.  `ViewSpace` enumerates the candidate views of a dataset's
// workload (|A| x |M| x |F| views) and knows each dimension's binning
// range and maximum bin count B_j.

#ifndef MUVE_CORE_VIEW_H_
#define MUVE_CORE_VIEW_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "storage/aggregate.h"

namespace muve::core {

// A non-binned candidate view (A, M, F).
struct View {
  std::string dimension;
  std::string measure;
  storage::AggregateFunction function = storage::AggregateFunction::kSum;

  // Routing resolved once by ViewSpace::Create, so probes read by index:
  // the view's position in views(), its dimension's in dimensions(), and
  // its (A, M) pair's in base_pairs() — -1 when no base histogram can
  // serve it.  A hand-built view carries -1s and cannot be probed.
  int index = -1;
  int dimension_index = -1;
  int base_pair = -1;

  // "SUM(3PAr) BY MP" — used in logs, examples, and test failure messages.
  std::string Label() const;

  // Stable key for hashing/caching.
  std::string Key() const;

  bool operator==(const View& other) const {
    return dimension == other.dimension && measure == other.measure &&
           function == other.function;
  }
};

// Binning metadata for one dimension.  Categorical dimensions carry no
// range and exactly one binning choice (their distinct groups ARE the
// bars); numeric dimensions span [lo, hi] with B_j = ceil(range) choices.
struct DimensionInfo {
  std::string name;
  bool categorical = false;
  double lo = 0.0;        // min over the whole database D_B (numeric only)
  double hi = 0.0;        // max over the whole database D_B (numeric only)
  int max_bins = 1;       // the paper's B_j = ceil(range L); 1 if categorical
  size_t distinct_values = 0;  // t, the raw group count over D_B

  double range() const { return hi - lo; }
};

// A candidate's usability objective: 1/bins on a numeric dimension
// (Eq. 3), 1/(distinct groups) on a categorical one.
double CandidateUsability(const DimensionInfo& dim, int bins);

// An (A, M) pair whose base histogram (storage/base_histogram_cache.h)
// serves every view over it with a moment-servable function.
struct BasePair {
  std::string dimension;
  std::string measure;
};

// The enumerated candidate-view space of a dataset workload.
class ViewSpace {
 public:
  // Enumerates |A| x |M| x |F| views in (dimension, measure, function)
  // lexicographic workload order, computes each dimension's binning
  // range from the dataset's full table, and resolves every view's
  // indices.  A view gets a base pair exactly when a base histogram can
  // serve it: numeric dimension, BaseServableFunction(F), non-string
  // measure.  MIN/MAX, categorical dimensions and COUNT over a string
  // measure scan rows directly.
  static common::Result<ViewSpace> Create(const data::Dataset& dataset);

  const std::vector<View>& views() const { return views_; }
  const std::vector<DimensionInfo>& dimensions() const { return dims_; }
  // The distinct (A, M) pairs of base-served views, in view order.
  const std::vector<BasePair>& base_pairs() const { return base_pairs_; }

  const DimensionInfo& dimension_info(const std::string& name) const;

  // Maximum bin count across all dimensions (the vertical round-robin's
  // round limit).
  int max_bins_overall() const;

  // Total number of binned views N_B = sum_j 2 |M| |F| B_j (Section III-C).
  int64_t TotalBinnedViews() const;

 private:
  // The index of (dimension, measure) in base_pairs_, appending it first
  // when new.
  int BasePairIndex(const std::string& dimension, const std::string& measure);

  std::vector<View> views_;
  std::vector<DimensionInfo> dims_;
  std::vector<BasePair> base_pairs_;
  std::unordered_map<std::string, size_t> dim_index_;
  size_t measures_per_dimension_ = 0;
};

}  // namespace muve::core

#endif  // MUVE_CORE_VIEW_H_
