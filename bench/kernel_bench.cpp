// Differential microbenchmark for the SIMD kernel layer
// (src/common/simd/): every kernel in the dispatch table, timed at every
// compiled-in dispatch level, reported as ns/element with the speedup
// over the scalar reference table.  Before timing, every level's output
// is checked against the scalar table's on the same inputs — the
// return value and every output buffer, byte for byte — and any
// mismatch exits 1, so a run also asserts the exactness contract
// (simd.h) on the CPU it runs on.
//
//   $ ./build/bench/kernel_bench [--smoke] [--repeat=N]
//         [--json-out[=path]]
//
// --smoke shrinks sizes and timing targets for CI.  With --json-out the
// shared BENCH_ schema gains one {"type":"record"} entry per
// (kernel, level, n) with ns_per_element (min over repetitions; median
// alongside) and speedup_vs_scalar.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/aligned.h"
#include "common/simd/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "harness.h"

namespace {

namespace simd = muve::common::simd;
using muve::common::FormatDouble;
using muve::common::Rng;
using muve::common::Stopwatch;

// Prevents the optimizer from discarding a kernel result (portable:
// a volatile store is a visible side effect on every target).
inline void Consume(double v) {
  volatile double sink = v;
  (void)sink;
}
inline void ConsumePtr(const void* p) {
  volatile const void* sink = p;
  (void)sink;
}

struct Timing {
  double ns_per_element_min = 0.0;
  double ns_per_element_median = 0.0;
};

// Times `fn` (one full kernel call over `elements` elements): calibrates
// an iteration count targeting `target_ms` per repetition, runs one
// unrecorded warmup repetition, then Repetitions() recorded ones, and
// reports min and median ns/element.
template <typename Fn>
Timing TimeKernel(size_t elements, double target_ms, Fn&& fn) {
  // Calibrate.
  Stopwatch calib;
  fn();
  double per_call_ms = std::max(calib.ElapsedMillis(), 1e-6);
  const int64_t iters = std::max<int64_t>(
      1, static_cast<int64_t>(target_ms / per_call_ms));
  const int reps = muve::bench::Repetitions();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = -1; r < reps; ++r) {  // r == -1: warmup, unrecorded
    Stopwatch timer;
    for (int64_t i = 0; i < iters; ++i) fn();
    const double ns = static_cast<double>(timer.ElapsedNanos());
    if (r >= 0) {
      samples.push_back(ns / (static_cast<double>(iters) *
                              static_cast<double>(elements)));
    }
  }
  std::sort(samples.begin(), samples.end());
  Timing t;
  t.ns_per_element_min = samples.front();
  t.ns_per_element_median =
      (samples.size() % 2 == 1)
          ? samples[samples.size() / 2]
          : 0.5 * (samples[samples.size() / 2 - 1] + samples[samples.size() / 2]);
  return t;
}

// Shared random inputs for one problem size, plus the output buffers
// the kernels write.  The timed p and q lie in [0, 1); with
// `spread_magnitudes` they are also scaled by 2^-20..2^20, so a
// reduction summed in another order is likely to round differently (the
// exactness check runs on the timed inputs and on kCheckRounds spread
// ones).
struct Inputs {
  simd::AlignedVector<double> p, q, scratch;
  std::vector<int32_t> idx;
  // Coarsen side: sorted fine-bin values + prefix arrays.
  std::vector<double> fine_values;
  std::vector<int64_t> prefix_counts;
  std::vector<double> prefix_sums, prefix_sum_sqs;
  simd::AlignedVector<int64_t> out_counts;
  simd::AlignedVector<double> out_sums, out_sum_sqs;

  explicit Inputs(size_t n, uint64_t seed = 2024,
                  bool spread_magnitudes = false) {
    Rng rng(seed);
    p.resize(n);
    q.resize(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = rng.NextDouble();
      q[i] = rng.NextDouble();
      if (spread_magnitudes) {
        p[i] = std::ldexp(p[i], static_cast<int>(rng.UniformInt(-20, 20)));
        q[i] = std::ldexp(q[i], static_cast<int>(rng.UniformInt(-20, 20)));
      }
    }
    fine_values.resize(n);
    for (size_t i = 0; i < n; ++i) {
      fine_values[i] = static_cast<double>(i) / static_cast<double>(n);
    }
    prefix_counts.resize(n + 1);
    prefix_sums.resize(n + 1);
    prefix_sum_sqs.resize(n + 1);
    prefix_counts[0] = 0;
    prefix_sums[0] = 0.0;
    prefix_sum_sqs[0] = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double v = rng.NextDouble();
      prefix_counts[i + 1] = prefix_counts[i] + 1;
      prefix_sums[i + 1] = prefix_sums[i] + v;
      prefix_sum_sqs[i + 1] = prefix_sum_sqs[i] + v * v;
    }
    ResetOutputs();
  }

  // Fills every output buffer with a sentinel, so an entry a kernel
  // fails to write shows up in the exactness check.
  void ResetOutputs() {
    scratch.assign(p.size(), -7.0);
    idx.assign(p.size(), -7);
    out_counts.assign(64, -7);
    out_sums.assign(64, -7.0);
    out_sum_sqs.assign(64, -7.0);
  }

  // The bytes of one kernel call's return value and of every output
  // buffer.
  std::string OutputBytes(double result) const {
    std::string bytes;
    const auto append = [&bytes](const void* data, size_t size) {
      bytes.append(static_cast<const char*>(data), size);
    };
    append(&result, sizeof(result));
    append(scratch.data(), scratch.size() * sizeof(double));
    append(idx.data(), idx.size() * sizeof(int32_t));
    append(out_counts.data(), out_counts.size() * sizeof(int64_t));
    append(out_sums.data(), out_sums.size() * sizeof(double));
    append(out_sum_sqs.data(), out_sum_sqs.size() * sizeof(double));
    return bytes;
  }
};

// Spread-magnitude input sets the exactness check runs per size.
constexpr uint64_t kCheckRounds = 16;

struct KernelCase {
  const char* name;
  // Runs one call of this kernel from `table` over `in`; returns the
  // kernel's return value (0 for kernels that only write buffers).
  double (*run)(const simd::KernelTable& table, Inputs& in);
};

const KernelCase kCases[] = {
    {"squared_l2_diff",
     [](const simd::KernelTable& t, Inputs& in) {
       return t.squared_l2_diff(in.p.data(), in.q.data(), in.p.size());
     }},
    {"relative_sse",
     [](const simd::KernelTable& t, Inputs& in) {
       return t.relative_sse(in.p.data(), in.q.data(), in.p.size());
     }},
    {"normalize_into",
     [](const simd::KernelTable& t, Inputs& in) {
       return t.normalize_into(in.p.data(), in.p.size(), in.scratch.data());
     }},
    {"bin_index_into",
     [](const simd::KernelTable& t, Inputs& in) {
       t.bin_index_into(in.p.data(), in.p.size(), 0.0, 1.0, 64,
                        in.idx.data());
       ConsumePtr(in.idx.data());
       return 0.0;
     }},
    {"coarsen_by_prefix_diff",
     [](const simd::KernelTable& t, Inputs& in) {
       t.coarsen_by_prefix_diff(
           in.fine_values.data(), in.fine_values.size(), 0.0, 1.0, 64,
           in.prefix_counts.data(), in.prefix_sums.data(),
           in.prefix_sum_sqs.data(), in.out_counts.data(),
           in.out_sums.data(), in.out_sum_sqs.data());
       ConsumePtr(in.out_sums.data());
       return 0.0;
     }},
};

// One call of `kernel` from `table` on freshly reset outputs.
std::string OutputOf(const KernelCase& kernel, const simd::KernelTable& table,
                     Inputs& in) {
  in.ResetOutputs();
  return in.OutputBytes(kernel.run(table, in));
}

}  // namespace

int main(int argc, char** argv) {
  const auto& options = muve::bench::InitBench(&argc, argv);
  const bool smoke = options.smoke;
  const double target_ms = smoke ? 1.0 : 20.0;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{1024} : std::vector<size_t>{64, 4096, 65536};

  // Levels: scalar first (the baseline), then AVX2 when this binary +
  // CPU support it.
  std::vector<const simd::KernelTable*> tables = {&simd::ScalarKernels()};
  if (const simd::KernelTable* avx2 =
          simd::KernelsFor(simd::DispatchLevel::kAvx2)) {
    tables.push_back(avx2);
  }

  std::cout << "=== SIMD kernel bench (active dispatch: "
            << simd::ActiveLevelName() << ", levels timed:";
  for (const auto* t : tables) std::cout << ' ' << t->name;
  std::cout << ") ===\n";

  for (const size_t n : sizes) {
    // Round 0 checks the timed inputs themselves.
    for (uint64_t round = 0; round <= kCheckRounds; ++round) {
      Inputs check = round == 0 ? Inputs(n) : Inputs(n, round, true);
      for (const KernelCase& kernel : kCases) {
        const std::string expected = OutputOf(kernel, *tables.front(), check);
        for (const auto* t : tables) {
          if (OutputOf(kernel, *t, check) != expected) {
            std::cerr << "kernel_bench: " << kernel.name << " at level "
                      << t->name << " differs from scalar (n = " << n
                      << ", check round " << round << ")\n";
            return 1;
          }
        }
      }
    }
    Inputs in(n);
    std::vector<std::string> headers = {"kernel"};
    for (const auto* t : tables) {
      headers.push_back(std::string(t->name) + "(ns/elem)");
    }
    if (tables.size() > 1) headers.push_back("speedup");
    muve::bench::TablePrinter table(headers);

    for (const KernelCase& kernel : kCases) {
      std::vector<std::string> row = {kernel.name};
      double scalar_ns = 0.0;
      double best_ns = 0.0;
      for (const auto* t : tables) {
        const Timing timing = TimeKernel(
            n, target_ms, [&] { Consume(kernel.run(*t, in)); });
        if (t == tables.front()) scalar_ns = timing.ns_per_element_min;
        best_ns = timing.ns_per_element_min;
        row.push_back(FormatDouble(timing.ns_per_element_min, 3));
        muve::bench::RecordJsonResult(
            kernel.name, {{"level", t->name}},
            {{"n", static_cast<double>(n)},
             {"ns_per_element", timing.ns_per_element_min},
             {"median_ns_per_element", timing.ns_per_element_median},
             {"speedup_vs_scalar",
              timing.ns_per_element_min > 0.0
                  ? scalar_ns / timing.ns_per_element_min
                  : 0.0}});
      }
      if (tables.size() > 1) {
        row.push_back(FormatDouble(best_ns > 0.0 ? scalar_ns / best_ns : 0.0,
                                   2) +
                      "x");
      }
      table.AddRow(std::move(row));
    }
    table.Print("SIMD kernels, n = " + std::to_string(n) + " (min of " +
                std::to_string(muve::bench::Repetitions()) +
                " reps, warmup excluded)");
  }
  return 0;
}
