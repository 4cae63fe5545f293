#include "core/view.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/base_histogram_cache.h"

namespace muve::core {

namespace {

// t, a dimension's raw group count over D_B: the distinct non-NULL,
// non-NaN values of `col`, read from the chunk dictionaries — string
// chunks always keep one, numeric chunks unless high-cardinality — so
// setup reads no row.  A numeric column with a high-cardinality chunk
// falls back to sorting its cells.
size_t DistinctValues(const storage::Column& col) {
  if (col.type() == storage::ValueType::kString) {
    std::unordered_set<std::string_view> seen;
    for (size_t c = 0; c < col.num_chunks(); ++c) {
      for (const std::string& s : col.chunk(c).dict()) seen.insert(s);
    }
    return seen.size();
  }
  if (col.type() == storage::ValueType::kNull) return 0;
  storage::MergedNumericDict merged;
  if (col.MergeNumericDicts(0, col.num_chunks(), &merged)) {
    return merged.values.size();
  }
  std::vector<double> values;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    const double v = col.NumericAt(r);
    if (!std::isnan(v)) values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  return static_cast<size_t>(std::unique(values.begin(), values.end()) -
                             values.begin());
}

}  // namespace

std::string View::Label() const {
  return std::string(storage::AggregateName(function)) + "(" + measure +
         ") BY " + dimension;
}

std::string View::Key() const {
  return common::ToLower(dimension) + "|" + common::ToLower(measure) + "|" +
         storage::AggregateName(function);
}

common::Result<ViewSpace> ViewSpace::Create(const data::Dataset& dataset) {
  if (dataset.table == nullptr) {
    return common::Status::InvalidArgument("dataset has no table");
  }
  if ((dataset.dimensions.empty() && dataset.categorical_dimensions.empty()) ||
      dataset.measures.empty() || dataset.functions.empty()) {
    return common::Status::InvalidArgument(
        "dataset workload needs at least one dimension (numeric or "
        "categorical), one measure, and one function");
  }
  ViewSpace space;
  const storage::Table& table = *dataset.table;

  for (const std::string& dim : dataset.dimensions) {
    MUVE_ASSIGN_OR_RETURN(const storage::Column* col,
                          table.ColumnByName(dim));
    if (col->type() == storage::ValueType::kString) {
      return common::Status::TypeMismatch(
          "dimension '" + dim + "' is not numeric; MuVE binning requires "
          "numerical dimensions");
    }
    MUVE_ASSIGN_OR_RETURN(const double lo, col->NumericMin());
    MUVE_ASSIGN_OR_RETURN(const double hi, col->NumericMax());
    DimensionInfo info;
    info.name = dim;
    info.lo = lo;
    info.hi = hi;
    // B_j: one binning choice per unit of range (Definition 1's widths
    // L/1, L/2, ..., 1), at least one.
    info.max_bins = std::max(1, static_cast<int>(std::ceil(hi - lo)));
    info.distinct_values = DistinctValues(*col);
    space.dim_index_.emplace(info.name, space.dims_.size());
    space.dims_.push_back(std::move(info));
  }

  for (const std::string& dim : dataset.categorical_dimensions) {
    MUVE_ASSIGN_OR_RETURN(const storage::Column* col,
                          table.ColumnByName(dim));
    DimensionInfo info;
    info.name = dim;
    info.categorical = true;
    info.max_bins = 1;  // the single non-binned candidate
    info.distinct_values = DistinctValues(*col);
    if (info.distinct_values == 0) {
      return common::Status::InvalidArgument(
          "categorical dimension '" + dim + "' has no non-null values");
    }
    space.dim_index_.emplace(info.name, space.dims_.size());
    space.dims_.push_back(std::move(info));
  }

  // String measures only pair with COUNT on the direct path; a base
  // histogram stores measure moments.
  std::vector<bool> numeric_measure;
  for (const std::string& measure : dataset.measures) {
    auto col = table.ColumnByName(measure);
    if (!col.ok()) {
      return common::Status::NotFound("measure '" + measure +
                                      "' not in table schema");
    }
    numeric_measure.push_back((*col)->type() != storage::ValueType::kString);
  }

  for (size_t d = 0; d < space.dims_.size(); ++d) {
    for (size_t m = 0; m < dataset.measures.size(); ++m) {
      const std::string& dim = space.dims_[d].name;
      const std::string& measure = dataset.measures[m];
      for (const storage::AggregateFunction f : dataset.functions) {
        View view{dim, measure, f};
        view.index = static_cast<int>(space.views_.size());
        view.dimension_index = static_cast<int>(d);
        if (!space.dims_[d].categorical && numeric_measure[m] &&
            storage::BaseServableFunction(f)) {
          view.base_pair = space.BasePairIndex(dim, measure);
        }
        space.views_.push_back(std::move(view));
      }
    }
  }
  space.measures_per_dimension_ =
      dataset.measures.size() * dataset.functions.size();
  return space;
}

int ViewSpace::BasePairIndex(const std::string& dimension,
                             const std::string& measure) {
  for (size_t i = 0; i < base_pairs_.size(); ++i) {
    if (base_pairs_[i].dimension == dimension &&
        base_pairs_[i].measure == measure) {
      return static_cast<int>(i);
    }
  }
  base_pairs_.push_back({dimension, measure});
  return static_cast<int>(base_pairs_.size() - 1);
}

const DimensionInfo& ViewSpace::dimension_info(const std::string& name) const {
  const auto it = dim_index_.find(name);
  MUVE_CHECK(it != dim_index_.end()) << "unknown dimension: " << name;
  return dims_[it->second];
}

int ViewSpace::max_bins_overall() const {
  int best = 1;
  for (const DimensionInfo& d : dims_) best = std::max(best, d.max_bins);
  return best;
}

int64_t ViewSpace::TotalBinnedViews() const {
  int64_t total = 0;
  for (const DimensionInfo& d : dims_) {
    total += 2LL * static_cast<int64_t>(measures_per_dimension_) * d.max_bins;
  }
  return total;
}

}  // namespace muve::core
