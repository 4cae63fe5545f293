// AVX2 kernel table: 4-lane double ports of the five probe-path kernels.
//
// This TU is compiled with -mavx2 but deliberately WITHOUT -mfma: every
// per-lane multiply/add rounds exactly like its scalar counterpart, and
// the reductions keep the scalar table's pinned 4-lane association, so
// every kernel is bit-identical to kernels_scalar.cc:
//   * bin_index_into uses the same IEEE divide + truncate + clamp, with
//     the boundary cases handled by blends instead of branches;
//   * coarsen_by_prefix_diff shares the scalar run sweep and differs
//     only in how the (bit-exact) index block is produced.
//
// All loads are unaligned (loadu); alignment is a performance hint, not
// a requirement (see simd.h).

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {
namespace {

// Deterministic horizontal sum in the pinned order: (l0 + l2) + (l1 + l3).
inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double SquaredL2Diff(const double* p, const double* q, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(p + i), _mm256_loadu_pd(q + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return sum;
}

double RelativeSse(const double* g, const double* rep, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d diff = _mm256_sub_pd(gv, _mm256_loadu_pd(rep + i));
    const __m256d term = _mm256_div_pd(_mm256_mul_pd(diff, diff),
                                       _mm256_mul_pd(gv, gv));
    // g != 0 keep-mask; NEQ_UQ treats NaN as "not equal", matching the
    // scalar `g == 0.0` exclusion test.  Masking is bitwise, so inf/NaN
    // terms from g == 0 lanes are cleanly zeroed.
    const __m256d keep = _mm256_cmp_pd(gv, zero, _CMP_NEQ_UQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(term, keep));
  }
  double r = HSum(acc);
  for (; i < n; ++i) {
    if (g[i] == 0.0) continue;
    const double diff = g[i] - rep[i];
    r += (diff * diff) / (g[i] * g[i]);
  }
  return r;
}

double NormalizeInto(const double* src, size_t n, double* dst) {
  if (n == 0) return 0.0;
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(src + i);
    // src > 0 ? src : 0 — GT_OQ is false for NaN and -0, exactly like
    // the scalar ternary (both produce +0).
    const __m256d clamped =
        _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ));
    _mm256_storeu_pd(dst + i, clamped);
    acc = _mm256_add_pd(acc, clamped);
  }
  double total = HSum(acc);
  for (; i < n; ++i) {
    dst[i] = src[i] > 0.0 ? src[i] : 0.0;
    total += dst[i];
  }
  // The clamped terms are all non-negative, so re-association cannot
  // change whether the total is zero — the uniform-fallback branch is
  // taken identically across dispatch levels.
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < n; ++j) dst[j] = uniform;
    return total;
  }
  const __m256d vt = _mm256_set1_pd(total);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(dst + j, _mm256_div_pd(_mm256_loadu_pd(dst + j), vt));
  }
  for (; j < n; ++j) dst[j] /= total;
  return total;
}

void BinIndexInto(const double* values, size_t n, double lo, double hi,
                  int num_bins, int32_t* out) {
  if (num_bins <= 1) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  // Interior lanes (lo < v < hi, which implies lo < hi) use the same
  // IEEE divide and truncation as BinIndexReference — correctly-rounded
  // divide + cvttpd is bit-exact against scalar.  Boundary/clamp lanes
  // are resolved by blends.
  const double width = (hi - lo) / static_cast<double>(num_bins);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vwidth = _mm256_set1_pd(width);
  const __m128i vzero32 = _mm_setzero_si128();
  const __m128i vmax32 = _mm_set1_epi32(num_bins - 1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d scaled =
        _mm256_div_pd(_mm256_sub_pd(v, vlo), vwidth);
    __m128i idx = _mm256_cvttpd_epi32(scaled);
    idx = _mm_min_epi32(_mm_max_epi32(idx, vzero32), vmax32);
    // v <= lo -> 0, v >= hi -> num_bins - 1 (in that priority order,
    // matching the scalar early returns).
    const __m256d le_lo_d = _mm256_cmp_pd(v, vlo, _CMP_LE_OQ);
    const __m256d ge_hi_d = _mm256_cmp_pd(v, vhi, _CMP_GE_OQ);
    // Narrow the 64-bit lane masks to 32-bit via movemask + table-free
    // per-bit blends (4 lanes only).
    const int m_lo = _mm256_movemask_pd(le_lo_d);
    const int m_hi = _mm256_movemask_pd(ge_hi_d);
    if ((m_lo | m_hi) != 0) {
      alignas(16) int32_t tmp[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp), idx);
      for (int lane = 0; lane < 4; ++lane) {
        if (m_hi & (1 << lane)) tmp[lane] = num_bins - 1;
        if (m_lo & (1 << lane)) tmp[lane] = 0;
      }
      idx = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), idx);
  }
  for (; i < n; ++i) {
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

const KernelTable& BuildTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.level = DispatchLevel::kAvx2;
    t.name = "avx2";
    t.squared_l2_diff = &SquaredL2Diff;
    t.relative_sse = &RelativeSse;
    t.normalize_into = &NormalizeInto;
    t.bin_index_into = &BinIndexInto;
    t.coarsen_by_prefix_diff = &CoarsenByPrefixDiff;
    return t;
  }();
  return table;
}

}  // namespace

const KernelTable& Avx2KernelsImpl() { return BuildTable(); }

bool Avx2SupportedAtRuntime() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace muve::common::simd
