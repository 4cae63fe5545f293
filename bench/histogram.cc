#include "histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace muve::storage {

namespace {

// Prefix-sum helper for O(1) segment mean/SSE queries:
//   SSE(i, j) = sumsq(i, j) - sum(i, j)^2 / (j - i).
class SegmentStats {
 public:
  explicit SegmentStats(const std::vector<double>& sorted) {
    prefix_sum_.resize(sorted.size() + 1, 0.0);
    prefix_sumsq_.resize(sorted.size() + 1, 0.0);
    for (size_t i = 0; i < sorted.size(); ++i) {
      prefix_sum_[i + 1] = prefix_sum_[i] + sorted[i];
      prefix_sumsq_[i + 1] = prefix_sumsq_[i] + sorted[i] * sorted[i];
    }
  }

  double Sum(size_t begin, size_t end) const {
    return prefix_sum_[end] - prefix_sum_[begin];
  }

  double Mean(size_t begin, size_t end) const {
    MUVE_DCHECK(end > begin);
    return Sum(begin, end) / static_cast<double>(end - begin);
  }

  double Sse(size_t begin, size_t end) const {
    if (end <= begin + 1) return 0.0;
    const double n = static_cast<double>(end - begin);
    const double sum = Sum(begin, end);
    const double sumsq = prefix_sumsq_[end] - prefix_sumsq_[begin];
    // Guard tiny negative values from floating-point cancellation.
    return std::max(0.0, sumsq - sum * sum / n);
  }

 private:
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sumsq_;
};

HistogramBucket MakeBucket(const std::vector<double>& sorted,
                           const SegmentStats& stats, size_t begin,
                           size_t end) {
  HistogramBucket bucket;
  bucket.begin = begin;
  bucket.end = end;
  bucket.lo = sorted[begin];
  bucket.hi = sorted[end - 1];
  bucket.mean = stats.Mean(begin, end);
  bucket.sse = stats.Sse(begin, end);
  return bucket;
}

Histogram BuildEquiWidth(const std::vector<double>& sorted,
                         const SegmentStats& stats, int num_buckets) {
  Histogram hist;
  hist.kind = Histogram::Kind::kEquiWidth;
  const double lo = sorted.front();
  const double hi = sorted.back();
  if (lo == hi || num_buckets == 1) {
    hist.buckets.push_back(MakeBucket(sorted, stats, 0, sorted.size()));
    return hist;
  }
  const double width = (hi - lo) / num_buckets;
  size_t begin = 0;
  for (int b = 0; b < num_buckets && begin < sorted.size(); ++b) {
    const double boundary = b + 1 == num_buckets
                                ? std::numeric_limits<double>::infinity()
                                : lo + width * (b + 1);
    size_t end = begin;
    while (end < sorted.size() && sorted[end] < boundary) ++end;
    if (end > begin) {
      hist.buckets.push_back(MakeBucket(sorted, stats, begin, end));
    }
    begin = end;
  }
  return hist;
}

Histogram BuildEquiDepth(const std::vector<double>& sorted,
                         const SegmentStats& stats, int num_buckets) {
  Histogram hist;
  hist.kind = Histogram::Kind::kEquiDepth;
  const size_t n = sorted.size();
  const size_t buckets = std::min<size_t>(num_buckets, n);
  size_t begin = 0;
  for (size_t b = 0; b < buckets; ++b) {
    // Evenly spread the remainder so bucket sizes differ by at most 1.
    size_t end = (n * (b + 1)) / buckets;
    if (end <= begin) end = begin + 1;
    hist.buckets.push_back(MakeBucket(sorted, stats, begin, end));
    begin = end;
  }
  return hist;
}

Histogram BuildVOptimal(const std::vector<double>& sorted,
                        const SegmentStats& stats, int num_buckets) {
  Histogram hist;
  hist.kind = Histogram::Kind::kVOptimal;
  const size_t n = sorted.size();
  const size_t b = std::min<size_t>(num_buckets, n);

  // dp[k][i]: minimum SSE of covering the first i values with k buckets.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(b + 1,
                                      std::vector<double>(n + 1, kInf));
  std::vector<std::vector<size_t>> split(
      b + 1, std::vector<size_t>(n + 1, 0));
  dp[0][0] = 0.0;
  for (size_t k = 1; k <= b; ++k) {
    for (size_t i = k; i <= n; ++i) {
      // Last bucket covers [j, i); j >= k-1 so earlier buckets fit.
      for (size_t j = k - 1; j < i; ++j) {
        if (dp[k - 1][j] == kInf) continue;
        const double candidate = dp[k - 1][j] + stats.Sse(j, i);
        if (candidate < dp[k][i]) {
          dp[k][i] = candidate;
          split[k][i] = j;
        }
      }
    }
  }

  // Walk back the optimal splits.
  std::vector<size_t> boundaries;
  size_t i = n;
  for (size_t k = b; k >= 1; --k) {
    boundaries.push_back(i);
    i = split[k][i];
  }
  boundaries.push_back(0);
  std::reverse(boundaries.begin(), boundaries.end());
  for (size_t s = 0; s + 1 < boundaries.size(); ++s) {
    if (boundaries[s + 1] > boundaries[s]) {
      hist.buckets.push_back(
          MakeBucket(sorted, stats, boundaries[s], boundaries[s + 1]));
    }
  }
  return hist;
}

}  // namespace

double Histogram::TotalSse() const {
  double total = 0.0;
  for (const HistogramBucket& b : buckets) total += b.sse;
  return total;
}

std::string Histogram::ToString() const {
  std::ostringstream out;
  out << HistogramKindName(kind) << " histogram, " << buckets.size()
      << " buckets, SSE=" << common::FormatDouble(TotalSse(), 3) << ":";
  for (const HistogramBucket& b : buckets) {
    out << " [" << common::FormatDouble(b.lo, 2) << ".."
        << common::FormatDouble(b.hi, 2) << "]x" << b.count();
  }
  return out.str();
}

const char* HistogramKindName(Histogram::Kind kind) {
  switch (kind) {
    case Histogram::Kind::kEquiWidth:
      return "equi-width";
    case Histogram::Kind::kEquiDepth:
      return "equi-depth";
    case Histogram::Kind::kVOptimal:
      return "v-optimal";
  }
  return "?";
}

common::Result<Histogram> BuildHistogram(Histogram::Kind kind,
                                         std::vector<double> values,
                                         int num_buckets) {
  if (values.empty()) {
    return common::Status::InvalidArgument(
        "cannot build a histogram over an empty series");
  }
  if (num_buckets < 1) {
    return common::Status::InvalidArgument("num_buckets must be >= 1");
  }
  std::sort(values.begin(), values.end());
  const SegmentStats stats(values);
  switch (kind) {
    case Histogram::Kind::kEquiWidth:
      return BuildEquiWidth(values, stats, num_buckets);
    case Histogram::Kind::kEquiDepth:
      return BuildEquiDepth(values, stats, num_buckets);
    case Histogram::Kind::kVOptimal:
      return BuildVOptimal(values, stats, num_buckets);
  }
  return common::Status::Internal("bad histogram kind");
}

double SegmentSse(const std::vector<double>& sorted_values, size_t begin,
                  size_t end) {
  MUVE_CHECK(begin <= end && end <= sorted_values.size());
  const SegmentStats stats(sorted_values);
  return stats.Sse(begin, end);
}

}  // namespace muve::storage
