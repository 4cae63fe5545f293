// Row-reading reference for ViewSpace's DimensionInfo.
//
// Computes a dimension's binning metadata by reading every cell: lo / hi
// as the extreme non-NULL values, B_j = ceil(hi - lo), and t by inserting
// every non-NULL cell into a std::set (std::set<double> for numeric
// dimensions, std::set<Value> for categorical ones).  ViewSpace::Create
// reads the zone maps and the chunk dictionaries instead; this is the
// oracle of the DimensionInfo tests in tests/core/view_space_test.cc.
// Columns must hold no NaN (a std::set of doubles cannot order it).

#ifndef MUVE_TESTS_DIMENSION_ORACLE_H_
#define MUVE_TESTS_DIMENSION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/logging.h"
#include "core/view.h"
#include "storage/table.h"

namespace muve::testutil {

inline core::DimensionInfo OracleDimensionInfo(const storage::Table& table,
                                               const std::string& name,
                                               bool categorical) {
  auto column = table.ColumnByName(name);
  MUVE_CHECK(column.ok()) << column.status().ToString();
  const storage::Column& col = **column;
  core::DimensionInfo info;
  info.name = name;
  info.categorical = categorical;
  if (categorical) {
    std::set<storage::Value> distinct;
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col.IsNull(r)) distinct.insert(col.ValueAt(r));
    }
    info.distinct_values = distinct.size();
    return info;
  }
  std::set<double> distinct;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    const double v = col.NumericAt(r);
    if (distinct.empty() || v < info.lo) info.lo = v;
    if (distinct.empty() || v > info.hi) info.hi = v;
    distinct.insert(v);
  }
  info.max_bins =
      std::max(1, static_cast<int>(std::ceil(info.hi - info.lo)));
  info.distinct_values = distinct.size();
  return info;
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_DIMENSION_ORACLE_H_
