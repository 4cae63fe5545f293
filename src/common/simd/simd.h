// Runtime-dispatched SIMD kernel layer for the probe hot path.
//
// The five kernels here are the dense, branch-free array loops every
// probe runs: the Euclidean deviation of Eq. 2, the relative-SSE
// accuracy of Eq. 4 (with its bin-index pass), distribution
// normalization, and the O(d) prefix-sum coarsening of every (view, b)
// probe.  They sit behind ONE dispatch table selected at startup:
//
//   * `scalar`  — portable reference implementations.  Always available;
//                 the only table on aarch64 and on x86-64 without AVX2.
//   * `avx2`    — 4-lane double kernels (x86-64, compiled with -mavx2 in
//                 its own TU, selected only when the CPU reports AVX2).
//
// Selection happens once, at first use: the best level the CPU supports,
// overridable with the MUVE_SIMD environment variable
// (`MUVE_SIMD=scalar|avx2|native`).  Tests and benchmarks can force a
// level in-process via SetActiveLevel().
//
// Exactness contract (pinned by tests/common/simd_kernel_test.cc, the
// recommender-level dispatch-invariance suite and kernel_bench's
// pre-timing check): EVERY kernel is BIT-IDENTICAL across dispatch
// levels, by construction:
//   * Integer outputs (bin_index_into, coarsen counts) use the same IEEE
//     divide / truncate / clamp sequence in every table.
//   * The coarsen kernel preserves the fine-bin order (both tables share
//     the run sweep and differ only in how the index block is produced).
//   * The floating-point reductions (squared_l2_diff, relative_sse,
//     normalize_into) all use ONE pinned 4-lane-strided association —
//     lane j owns elements i % 4 == j, lanes combine as
//     (l0+l2)+(l1+l3), tails fold sequentially (see kernels_scalar.cc) —
//     which the AVX2 table reproduces exactly.  Consequence: recommender
//     top-k output can never depend on the dispatch path.
//   * NaN inputs are outside the contract (no recommender path produces
//     them); ±0 and denormals are inside it and fuzzed explicitly.
//
// Plain loops outside this table: Manhattan, Chebyshev and EMD
// (core/distance.cc), which the default Euclidean probe path never runs,
// and the fused scan's keyed accumulator (storage/fused_scan.cc), whose
// AVX2 gather version ran slower than scalar.
//
// Alignment contract: every kernel uses unaligned loads, so callers MAY
// pass arbitrary pointers; hot callers (evaluator distribution buffers)
// use AlignedVector (aligned.h).

#ifndef MUVE_COMMON_SIMD_SIMD_H_
#define MUVE_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace muve::common::simd {

// Dispatch levels, ordered by preference (higher = wider).
enum class DispatchLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Reference bin-index semantics, shared with storage::BinIndexFor (which
// delegates here): values outside [lo, hi] clamp to the first/last bin.
// Every bin_index_into kernel must reproduce this function bit-exactly.
inline int BinIndexReference(double value, double lo, double hi,
                             int num_bins) {
  if (num_bins <= 1) return 0;
  if (value <= lo) return 0;
  if (value >= hi) return num_bins - 1;
  const double width = (hi - lo) / static_cast<double>(num_bins);
  int idx = static_cast<int>((value - lo) / width);
  if (idx >= num_bins) idx = num_bins - 1;
  if (idx < 0) idx = 0;
  return idx;
}

// One dispatch path: a table of function pointers over the hot
// primitives.  All tables expose identical semantics (see the exactness
// contract above); only the instruction mix differs.
struct KernelTable {
  DispatchLevel level = DispatchLevel::kScalar;
  const char* name = "scalar";

  // sum_i (p[i] - q[i])^2  — Euclidean deviation core (Eq. 2).
  double (*squared_l2_diff)(const double* p, const double* q, size_t n);
  // sum over i with g[i] != 0 of (g[i] - rep[i])^2 / g[i]^2 — the
  // relative SSE behind the accuracy objective (Eq. 4).
  double (*relative_sse)(const double* g, const double* rep, size_t n);
  // Clamps negatives to 0 and normalizes into a probability distribution
  // (uniform fallback when the clamped total is <= 0).  dst may not alias
  // src.  Returns the clamped pre-normalization total.
  double (*normalize_into)(const double* src, size_t n, double* dst);
  // out[i] = BinIndexReference(values[i], lo, hi, num_bins).  Bit-exact.
  void (*bin_index_into)(const double* values, size_t n, double lo,
                         double hi, int num_bins, int32_t* out);
  // Prefix-sum coarsening (base_histogram_cache): groups the d sorted
  // fine-bin values by their coarse bin and emits per-coarse-bin
  // count/sum/sum_sq as prefix-array differences.  out_* have num_bins
  // entries and are fully overwritten (untouched coarse bins become 0).
  // Bit-identical across levels (indices exact, diffs of identical
  // prefix values).
  void (*coarsen_by_prefix_diff)(const double* values, size_t d, double lo,
                                 double hi, int num_bins,
                                 const int64_t* prefix_counts,
                                 const double* prefix_sums,
                                 const double* prefix_sum_sqs,
                                 int64_t* out_counts, double* out_sums,
                                 double* out_sum_sqs);
};

// "scalar" / "avx2".
const char* DispatchLevelName(DispatchLevel level);

// The always-available portable reference table.
const KernelTable& ScalarKernels();

// The table for `level`, or nullptr when that level is not compiled in /
// not supported by this CPU.  ScalarKernels() is never null.
const KernelTable* KernelsFor(DispatchLevel level);

// The widest level this binary + CPU supports.
DispatchLevel BestSupportedLevel();

// The table all hot paths dispatch through.  Resolved once on first use:
// BestSupportedLevel(), overridden by MUVE_SIMD
// (scalar|avx2|native; unsupported or unparsable values fall back
// to the best supported level with a warning to stderr).
const KernelTable& ActiveKernels();
DispatchLevel ActiveLevel();
const char* ActiveLevelName();

// Forces the active table in-process (tests, differential benches, the
// recommender-level dispatch-invariance suite).  Returns false — leaving
// the active table unchanged — when `level` is unsupported.  Thread-safe
// but not synchronized with in-flight kernel calls; call between runs.
bool SetActiveLevel(DispatchLevel level);

}  // namespace muve::common::simd

#endif  // MUVE_COMMON_SIMD_SIMD_H_
