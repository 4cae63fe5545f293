// Portable reference kernels.
//
// The element-wise semantics are the historical open-coded loops from
// distance.cc / distribution.cc / objectives.cc /
// base_histogram_cache.cc.  The REDUCTION association, however, is
// pinned to a fixed 4-lane-strided scheme: lane j owns elements i with
// i % 4 == j over the body (i + 4 <= n), lanes combine as
// (l0 + l2) + (l1 + l3), and the tail (< 4 elements) folds sequentially
// into the combined sum.  The AVX2 table reproduces exactly this
// association (a 4-wide register IS the four lanes), which is what makes
// ALL kernels — floating-point reductions included — bit-identical
// across dispatch levels, so top-k output can never depend on the
// dispatch path.  For n < 4 every reduction degenerates to the
// historical sequential loop.

#include <cstddef>
#include <cstdint>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {
namespace {

// The pinned lane-combine order (matches the AVX2 horizontal sum:
// low/high 128-bit halves add first, then the remaining pair).
inline double Combine4(double l0, double l1, double l2, double l3) {
  return (l0 + l2) + (l1 + l3);
}

double SquaredL2Diff(const double* p, const double* q, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - q[i];
    const double d1 = p[i + 1] - q[i + 1];
    const double d2 = p[i + 2] - q[i + 2];
    const double d3 = p[i + 3] - q[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  double sum = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return sum;
}

double RelativeSse(const double* g, const double* rep, size_t n) {
  // Masked lanes contribute +0.0 (adding +0.0 is the identity here:
  // every unmasked term is a non-negative quotient), which is exactly
  // what the AVX2 table's bitwise mask produces.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  const auto term = [](double gj, double rj) {
    const double diff = gj - rj;
    return gj != 0.0 ? (diff * diff) / (gj * gj) : 0.0;
  };
  for (; i + 4 <= n; i += 4) {
    a0 += term(g[i], rep[i]);
    a1 += term(g[i + 1], rep[i + 1]);
    a2 += term(g[i + 2], rep[i + 2]);
    a3 += term(g[i + 3], rep[i + 3]);
  }
  double r = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    if (g[i] == 0.0) continue;  // relative error undefined (objectives.h)
    const double diff = g[i] - rep[i];
    r += (diff * diff) / (g[i] * g[i]);
  }
  return r;
}

double NormalizeInto(const double* src, size_t n, double* dst) {
  if (n == 0) return 0.0;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double c0 = src[i] > 0.0 ? src[i] : 0.0;
    const double c1 = src[i + 1] > 0.0 ? src[i + 1] : 0.0;
    const double c2 = src[i + 2] > 0.0 ? src[i + 2] : 0.0;
    const double c3 = src[i + 3] > 0.0 ? src[i + 3] : 0.0;
    dst[i] = c0;
    dst[i + 1] = c1;
    dst[i + 2] = c2;
    dst[i + 3] = c3;
    a0 += c0;
    a1 += c1;
    a2 += c2;
    a3 += c3;
  }
  double total = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    dst[i] = src[i] > 0.0 ? src[i] : 0.0;
    total += dst[i];
  }
  // The clamped terms are all non-negative, so association cannot
  // change whether the total is zero: the uniform-fallback branch is
  // taken identically under every association.
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < n; ++j) dst[j] = uniform;
    return total;
  }
  for (size_t j = 0; j < n; ++j) dst[j] /= total;
  return total;
}

void BinIndexInto(const double* values, size_t n, double lo, double hi,
                  int num_bins, int32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = BinIndexReference(values[i], lo, hi, num_bins);
  }
}

void CoarsenByPrefixDiff(const double* values, size_t d, double lo,
                         double hi, int num_bins,
                         const int64_t* prefix_counts,
                         const double* prefix_sums,
                         const double* prefix_sum_sqs, int64_t* out_counts,
                         double* out_sums, double* out_sum_sqs) {
  CoarsenWithBinIndex(
      [](const double* block, size_t len, double blo, double bhi, int nb,
         int32_t* idx) { BinIndexInto(block, len, blo, bhi, nb, idx); },
      values, d, lo, hi, num_bins, prefix_counts, prefix_sums,
      prefix_sum_sqs, out_counts, out_sums, out_sum_sqs);
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.level = DispatchLevel::kScalar;
    t.name = "scalar";
    t.squared_l2_diff = &SquaredL2Diff;
    t.relative_sse = &RelativeSse;
    t.normalize_into = &NormalizeInto;
    t.bin_index_into = &BinIndexInto;
    t.coarsen_by_prefix_diff = &CoarsenByPrefixDiff;
    return t;
  }();
  return table;
}

}  // namespace muve::common::simd
