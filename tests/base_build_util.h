// One-pair base-histogram builds for the storage suites: the
// single-morsel FusedBuildBaseHistograms call, and a one-pair
// BaseHistogramCache::FusedBuild read — what ViewEvaluator does when one
// of its pins is empty.

#ifndef MUVE_TESTS_BASE_BUILD_UTIL_H_
#define MUVE_TESTS_BASE_BUILD_UTIL_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/base_histogram_cache.h"
#include "storage/fused_scan.h"
#include "storage/table.h"

namespace muve::testutil {

// The base histogram of (dimension, measure) over `rows`, built with one
// morsel: per-fine-bin sums accumulate in row order.
inline common::Result<storage::BaseHistogram> BuildOne(
    const storage::Table& table, const storage::RowSet& rows,
    const std::string& dimension, const std::string& measure,
    storage::FusedScanScratch* scratch = nullptr) {
  MUVE_ASSIGN_OR_RETURN(
      std::vector<storage::BaseHistogram> built,
      storage::FusedBuildBaseHistograms(
          table, rows, {{dimension, measure}}, /*pool=*/nullptr,
          std::max<size_t>(rows.size(), 1), /*stats=*/nullptr, scratch));
  return std::move(built[0]);
}

struct Fetched {
  std::shared_ptr<const storage::BaseHistogram> histogram;
  bool built = false;  // whether this read scanned rows
};

// Reads `key` from `cache` through a one-pair, one-morsel, coalesced
// FusedBuild over `rows`, building the pair when the store lacks an
// entry covering exactly rows.size() rows.
inline common::Result<Fetched> FetchOne(storage::BaseHistogramCache& cache,
                                        const std::string& key,
                                        const storage::Table& table,
                                        const storage::RowSet& rows,
                                        const std::string& dimension,
                                        const std::string& measure) {
  storage::BaseHistogramCache::FusedHistogramBuildRequest request;
  request.rows = &rows;
  request.pairs.push_back({key, dimension, measure});
  request.morsel_size = std::max<size_t>(rows.size(), 1);
  request.coalesce = true;
  storage::BaseHistogramCache::FusedBuildOutcome outcome;
  MUVE_RETURN_IF_ERROR(cache.FusedBuild(table, request, &outcome));
  return Fetched{outcome.histograms[0], outcome.passes > 0};
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_BASE_BUILD_UTIL_H_
