// Differential fuzz suite for the SIMD kernel layer (common/simd/):
// every kernel, at every dispatch level compiled into this binary, must
// be BIT-IDENTICAL to the scalar reference table — the exactness
// contract simd.h pins (the shared 4-lane-strided reduction
// association).  Inputs sweep the shapes that break lane code: length
// 0, 1, odd, one-below/above a lane multiple, long; values include ±0,
// denormals, and mixed magnitudes.  Seeded via tests/fuzz_util.h
// (MUVE_FUZZ_SEED to soak).
//
// Also pins the dispatch plumbing itself: level naming, the
// BinIndexReference clamp semantics, and SetActiveLevel round-trips.

#include "common/simd/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd/aligned.h"
#include "fuzz_util.h"

namespace muve::common::simd {
namespace {

// Bitwise double equality (distinguishes +0/-0; NaN is outside the
// kernel contract and never generated here).
::testing::AssertionResult BitEqual(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex << ab << " vs 0x"
         << bb << ")";
}

// The lengths that break lane code: empty, sub-lane, lane boundaries
// +/- 1, odd, and long-with-tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                           31, 33, 63, 64, 100, 255, 1024, 1027};

// Fills `out` with adversarial doubles: mixed magnitudes, negatives,
// exact zeros of both signs, and denormals.
void FillAdversarial(Rng& rng, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.05) {
      out[i] = 0.0;
    } else if (roll < 0.10) {
      out[i] = -0.0;
    } else if (roll < 0.15) {
      out[i] = std::numeric_limits<double>::denorm_min() *
               static_cast<double>(rng.UniformInt(1, 1000));
    } else if (roll < 0.25) {
      out[i] = rng.Uniform(-1e-12, 1e-12);
    } else if (roll < 0.35) {
      out[i] = rng.Uniform(-1e9, 1e9);
    } else {
      out[i] = rng.Uniform(-1.0, 1.0);
    }
  }
}

// Every non-scalar table compiled into this binary and supported by
// this CPU (AVX2, or none).
std::vector<const KernelTable*> VectorTables() {
  std::vector<const KernelTable*> tables;
  if (const KernelTable* t = KernelsFor(DispatchLevel::kAvx2)) {
    tables.push_back(t);
  }
  return tables;
}

class SimdKernelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (VectorTables().empty()) {
      GTEST_SKIP() << "no vector dispatch level compiled in / supported; "
                      "scalar-only binary is trivially self-consistent";
    }
  }
};

TEST_F(SimdKernelDifferentialTest, ReductionsBitIdenticalAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 0;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      for (int round = 0; round < 8; ++round) {
        const uint64_t seed = testutil::FuzzSeed(case_index++);
        SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
        SCOPED_TRACE(std::string("level=") + table->name +
                     " n=" + std::to_string(n));
        Rng rng(seed);
        AlignedVector<double> p(n), q(n);
        FillAdversarial(rng, p.data(), n);
        FillAdversarial(rng, q.data(), n);
        EXPECT_TRUE(BitEqual(ref.squared_l2_diff(p.data(), q.data(), n),
                             table->squared_l2_diff(p.data(), q.data(), n)));
        // relative_sse's guard (g != 0) must agree across levels even
        // with exact ±0 entries in g.
        EXPECT_TRUE(BitEqual(ref.relative_sse(p.data(), q.data(), n),
                             table->relative_sse(p.data(), q.data(), n)));
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, NormalizeIntoBitIdenticalAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 1000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      for (int round = 0; round < 8; ++round) {
        const uint64_t seed = testutil::FuzzSeed(case_index++);
        SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
        SCOPED_TRACE(std::string("level=") + table->name +
                     " n=" + std::to_string(n));
        Rng rng(seed);
        AlignedVector<double> src(n);
        FillAdversarial(rng, src.data(), n);
        // Round 0 forces the all-clamped branch (uniform fallback).
        if (round == 0) {
          for (size_t i = 0; i < n; ++i) src[i] = -std::fabs(src[i]);
        }
        AlignedVector<double> dst_ref(n, -7.0), dst_vec(n, -7.0);
        const double total_ref = ref.normalize_into(src.data(), n,
                                                    dst_ref.data());
        const double total_vec = table->normalize_into(src.data(), n,
                                                       dst_vec.data());
        EXPECT_TRUE(BitEqual(total_ref, total_vec));
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(BitEqual(dst_ref[i], dst_vec[i])) << "i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, BinIndexIntoBitExactAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 2000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      const uint64_t seed = testutil::FuzzSeed(case_index++);
      SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
      SCOPED_TRACE(std::string("level=") + table->name +
                   " n=" + std::to_string(n));
      Rng rng(seed);
      AlignedVector<double> values(n);
      // Values straddling [lo, hi] with exact-boundary hits.
      const double lo = -3.0, hi = 5.0;
      for (size_t i = 0; i < n; ++i) {
        const double roll = rng.NextDouble();
        if (roll < 0.1) {
          values[i] = lo;
        } else if (roll < 0.2) {
          values[i] = hi;
        } else {
          values[i] = rng.Uniform(lo - 2.0, hi + 2.0);
        }
      }
      for (const int num_bins : {1, 2, 7, 64, 1024}) {
        std::vector<int32_t> out_ref(n, -1), out_vec(n, -1);
        ref.bin_index_into(values.data(), n, lo, hi, num_bins,
                           out_ref.data());
        table->bin_index_into(values.data(), n, lo, hi, num_bins,
                              out_vec.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out_ref[i], out_vec[i])
              << "i=" << i << " v=" << values[i] << " bins=" << num_bins;
          // And both must equal the reference semantics.
          ASSERT_EQ(out_ref[i],
                    BinIndexReference(values[i], lo, hi, num_bins));
        }
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, CoarsenByPrefixDiffBitIdentical) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 3000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t d : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                           size_t{513}, size_t{4096}}) {
      const uint64_t seed = testutil::FuzzSeed(case_index++);
      SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
      SCOPED_TRACE(std::string("level=") + table->name +
                   " d=" + std::to_string(d));
      Rng rng(seed);
      // Sorted distinct fine-bin values with clustered duplicates of
      // coarse assignment.
      std::vector<double> values(d);
      double v = rng.Uniform(-2.0, 0.0);
      for (size_t i = 0; i < d; ++i) {
        v += rng.Uniform(1e-6, 0.05);
        values[i] = v;
      }
      std::vector<int64_t> prefix_counts(d + 1, 0);
      std::vector<double> prefix_sums(d + 1, 0.0), prefix_sum_sqs(d + 1, 0.0);
      for (size_t i = 0; i < d; ++i) {
        const int64_t c = rng.UniformInt(0, 9);
        const double s = rng.Uniform(-50.0, 50.0);
        prefix_counts[i + 1] = prefix_counts[i] + c;
        prefix_sums[i + 1] = prefix_sums[i] + s;
        prefix_sum_sqs[i + 1] = prefix_sum_sqs[i] + s * s;
      }
      for (const int num_bins : {1, 3, 16, 100}) {
        const double lo = -2.0, hi = v + 1.0;
        AlignedVector<int64_t> c_ref(num_bins, -1), c_vec(num_bins, -1);
        AlignedVector<double> s_ref(num_bins, -1), s_vec(num_bins, -1);
        AlignedVector<double> q_ref(num_bins, -1), q_vec(num_bins, -1);
        ref.coarsen_by_prefix_diff(values.data(), d, lo, hi, num_bins,
                                   prefix_counts.data(), prefix_sums.data(),
                                   prefix_sum_sqs.data(), c_ref.data(),
                                   s_ref.data(), q_ref.data());
        table->coarsen_by_prefix_diff(values.data(), d, lo, hi, num_bins,
                                      prefix_counts.data(),
                                      prefix_sums.data(),
                                      prefix_sum_sqs.data(), c_vec.data(),
                                      s_vec.data(), q_vec.data());
        for (int k = 0; k < num_bins; ++k) {
          ASSERT_EQ(c_ref[k], c_vec[k]) << "bin " << k;
          ASSERT_TRUE(BitEqual(s_ref[k], s_vec[k])) << "bin " << k;
          ASSERT_TRUE(BitEqual(q_ref[k], q_vec[k])) << "bin " << k;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  const KernelTable& scalar = ScalarKernels();
  EXPECT_EQ(scalar.level, DispatchLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(KernelsFor(DispatchLevel::kScalar), &scalar);
}

TEST(SimdDispatchTest, BestSupportedLevelHasTable) {
  const DispatchLevel best = BestSupportedLevel();
  const KernelTable* table = KernelsFor(best);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->level, best);
}

TEST(SimdDispatchTest, SetActiveLevelRoundTrips) {
  const DispatchLevel original = ActiveLevel();
  ASSERT_TRUE(SetActiveLevel(DispatchLevel::kScalar));
  EXPECT_EQ(ActiveLevel(), DispatchLevel::kScalar);
  EXPECT_STREQ(ActiveLevelName(), "scalar");
  // Restore.
  ASSERT_TRUE(SetActiveLevel(original));
  EXPECT_EQ(ActiveLevel(), original);
}

TEST(SimdDispatchTest, SetActiveLevelRejectsUnsupported) {
  // A level with no table — AVX2 on a host without it, or a value no
  // table carries — is rejected without disturbing the active table.
  const DispatchLevel original = ActiveLevel();
  std::vector<DispatchLevel> unsupported = {static_cast<DispatchLevel>(7)};
  if (KernelsFor(DispatchLevel::kAvx2) == nullptr) {
    unsupported.push_back(DispatchLevel::kAvx2);
  }
  for (const DispatchLevel level : unsupported) {
    EXPECT_EQ(KernelsFor(level), nullptr);
    EXPECT_FALSE(SetActiveLevel(level));
    EXPECT_EQ(ActiveLevel(), original);
  }
}

TEST(SimdDispatchTest, BinIndexReferenceClampSemantics) {
  EXPECT_EQ(BinIndexReference(0.5, 0.0, 1.0, 1), 0);
  EXPECT_EQ(BinIndexReference(123.0, 0.0, 1.0, 0), 0);
  EXPECT_EQ(BinIndexReference(-5.0, 0.0, 1.0, 4), 0);
  EXPECT_EQ(BinIndexReference(0.0, 0.0, 1.0, 4), 0);
  EXPECT_EQ(BinIndexReference(1.0, 0.0, 1.0, 4), 3);
  EXPECT_EQ(BinIndexReference(7.0, 0.0, 1.0, 4), 3);
  EXPECT_EQ(BinIndexReference(0.25, 0.0, 1.0, 4), 1);
}

}  // namespace
}  // namespace muve::common::simd
