// Histogram construction over numeric series.
//
// Section III-A grounds MuVE's binned views in the database literature on
// histograms (Ioannidis; Jagadish et al.; Cormode et al.): a binned view
// is an equi-width histogram over the dimension, chosen over the more
// accurate non-uniform shapes because only equi-width bins render as a
// standard bar chart.  This module implements the three classic
// partitioning schemes so that claim is checkable in this codebase:
//
//   * equi-width  — uniform bucket width (what binned views use);
//   * equi-depth  — uniform mass per bucket (quantile boundaries);
//   * V-optimal   — minimum total SSE partition of the *sorted value
//                   series* into b buckets, via the O(n^2 b) dynamic
//                   program of Jagadish et al. (VLDB'98).
//
// The SSE helpers let tests and the `ablate_histogram` bench verify the
// textbook ordering SSE(V-optimal) <= SSE(equi-depth-ish) and
// SSE(V-optimal) <= SSE(equi-width) on real series.  Nothing on the
// engine's path uses these histograms, so the module lives beside its
// bench (library `muve_bench_histogram`), not in `src/storage`.

#ifndef MUVE_BENCH_HISTOGRAM_H_
#define MUVE_BENCH_HISTOGRAM_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace muve::storage {

// One histogram bucket over positions [begin, end) of the input series,
// summarized by the mean of its values.
struct HistogramBucket {
  size_t begin = 0;  // first index (inclusive)
  size_t end = 0;    // last index (exclusive)
  double lo = 0.0;   // first value in the bucket
  double hi = 0.0;   // last value in the bucket
  double mean = 0.0;
  double sse = 0.0;  // sum squared error of values vs mean

  size_t count() const { return end - begin; }
};

struct Histogram {
  enum class Kind { kEquiWidth, kEquiDepth, kVOptimal };

  Kind kind = Kind::kEquiWidth;
  std::vector<HistogramBucket> buckets;

  // Total SSE across buckets (the approximation error the paper's
  // accuracy objective is built from).
  double TotalSse() const;

  std::string ToString() const;
};

const char* HistogramKindName(Histogram::Kind kind);

// Builds a histogram with (at most) `num_buckets` buckets over `values`.
// Input need not be sorted; a sorted copy is made internally (bucket
// indexes refer to the sorted order).  Errors: empty input or
// num_buckets < 1.
//
// Equi-width splits the value range into equal-width intervals (empty
// intervals produce no bucket).  Equi-depth puts ceil(n/b) values per
// bucket.  V-optimal minimizes total SSE exactly by dynamic programming —
// O(n^2 b) time, O(n b) space; intended for the n <= a-few-thousand
// series that view recommendation produces.
common::Result<Histogram> BuildHistogram(Histogram::Kind kind,
                                         std::vector<double> values,
                                         int num_buckets);

// SSE of approximating the sorted `values[begin..end)` by their mean.
// Exposed for tests; computed in O(1) from prefix sums inside the
// builders.
double SegmentSse(const std::vector<double>& sorted_values, size_t begin,
                  size_t end);

}  // namespace muve::storage

#endif  // MUVE_BENCH_HISTOGRAM_H_
