// Internal glue between the dispatch table and the per-level kernel TUs.
// Not part of the public surface; include simd.h instead.

#ifndef MUVE_COMMON_SIMD_INTERNAL_H_
#define MUVE_COMMON_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.h"

namespace muve::common::simd {

// Shared coarsen skeleton: the per-level tables differ only in how the
// fine-bin -> coarse-bin index array is produced (scalar BinIndexReference
// vs a vectorized bin_index_into), while the run sweep and the prefix
// diffs are identical — which is what makes the kernel bit-identical
// across levels by construction.
template <typename BinIndexBlockFn>
inline void CoarsenWithBinIndex(BinIndexBlockFn&& bin_index_block,
                                const double* values, size_t d, double lo,
                                double hi, int num_bins,
                                const int64_t* prefix_counts,
                                const double* prefix_sums,
                                const double* prefix_sum_sqs,
                                int64_t* out_counts, double* out_sums,
                                double* out_sum_sqs) {
  for (int k = 0; k < num_bins; ++k) {
    out_counts[k] = 0;
    out_sums[k] = 0.0;
    out_sum_sqs[k] = 0.0;
  }
  if (d == 0) return;

  constexpr size_t kBlock = 512;
  int32_t idx[kBlock];
  int32_t run_bin = -1;
  size_t run_start = 0;

  auto flush = [&](size_t run_end) {
    const int64_t count =
        prefix_counts[run_end] - prefix_counts[run_start];
    if (count > 0) {
      out_counts[run_bin] = count;
      out_sums[run_bin] = prefix_sums[run_end] - prefix_sums[run_start];
      out_sum_sqs[run_bin] =
          prefix_sum_sqs[run_end] - prefix_sum_sqs[run_start];
    }
  };

  for (size_t base = 0; base < d; base += kBlock) {
    const size_t len = d - base < kBlock ? d - base : kBlock;
    bin_index_block(values + base, len, lo, hi, num_bins, idx);
    for (size_t j = 0; j < len; ++j) {
      if (idx[j] != run_bin) {
        if (run_bin >= 0) flush(base + j);
        run_bin = idx[j];
        run_start = base + j;
      }
    }
  }
  flush(d);
}

// The AVX2 table, compiled only when its TU is in the build; dispatch.cc
// references it behind the matching macro.
#if defined(MUVE_SIMD_AVX2)
const KernelTable& Avx2KernelsImpl();
bool Avx2SupportedAtRuntime();
#endif

}  // namespace muve::common::simd

#endif  // MUVE_COMMON_SIMD_INTERNAL_H_
