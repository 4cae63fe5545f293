// Unit + differential tests for the validity bitmap view a chunk version
// hands its readers: bit semantics through Column appends, word
// boundaries (complete words from the shared tail store, the partial
// last word from the version, its unused bits zero), and a fuzzed
// differential against a std::vector<bool> model across versions that
// share one store.

#include "storage/validity_bitmap.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fuzz_util.h"
#include "storage/column.h"

namespace muve::storage {
namespace {

size_t CountValid(const ValidityBitmap& bm) {
  size_t n = 0;
  for (size_t w = 0; w < bm.num_words(); ++w) {
    n += static_cast<size_t>(std::popcount(bm.Word(w)));
  }
  return n;
}

void Append(Column* col, bool valid) {
  if (valid) {
    col->AppendInt64(1);
  } else {
    col->AppendNull();
  }
}

TEST(ValidityBitmapTest, EmptyBitmap) {
  const ValidityBitmap bm(nullptr, 0, 0);
  EXPECT_EQ(bm.size(), 0u);
  EXPECT_EQ(bm.num_words(), 0u);
  EXPECT_EQ(CountValid(bm), 0u);
}

TEST(ValidityBitmapTest, PushBackAndGet) {
  Column col(ValueType::kInt64);
  Append(&col, true);
  Append(&col, false);
  Append(&col, true);
  const ValidityBitmap bm = col.chunk(0).validity();
  ASSERT_EQ(bm.size(), 3u);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_TRUE(bm.Get(2));
  EXPECT_EQ(bm.Word(0), 0b101u);
  EXPECT_EQ(col.chunk(0).null_count(), 1u);
  EXPECT_FALSE(col.chunk(0).AllValid());
}

TEST(ValidityBitmapTest, WordBoundaries) {
  // Sizes straddling the 64-bit word edges: the last word's unused bits
  // must stay zero so callers can popcount words blindly.
  for (const size_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    Column col(ValueType::kInt64, /*chunk_rows=*/256);
    for (size_t i = 0; i < n; ++i) Append(&col, i % 2 == 0);
    const ValidityBitmap bm = col.chunk(0).validity();
    ASSERT_EQ(bm.size(), n);
    EXPECT_EQ(bm.num_words(), (n + 63) / 64);
    size_t expect_valid = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bm.Get(i), i % 2 == 0) << "n=" << n << " i=" << i;
      if (i % 2 == 0) ++expect_valid;
    }
    EXPECT_EQ(CountValid(bm), expect_valid) << "n=" << n;
    EXPECT_EQ(col.chunk(0).null_count(), n - expect_valid);
  }
}

TEST(ValidityBitmapTest, AllValidFastPathAcrossWords) {
  Column col(ValueType::kInt64);
  for (int i = 0; i < 200; ++i) Append(&col, true);
  EXPECT_TRUE(col.chunk(0).AllValid());
  const ValidityBitmap bm = col.chunk(0).validity();
  EXPECT_EQ(bm.Word(2), ~uint64_t{0});
  EXPECT_EQ(bm.Word(3), 0xFFu);  // rows 192..199
  Append(&col, false);
  EXPECT_FALSE(col.chunk(0).AllValid());
  EXPECT_EQ(col.chunk(0).validity().Word(3), 0xFFu);
}

// Random runs appended through successive column versions that share one
// tail store: every version, checked after all appends, still reads its
// own prefix of the model — including the partial last word a later
// version completed in the store.
TEST(ValidityBitmapTest, FuzzDifferentialAgainstVectorBool) {
  for (uint64_t c = 0; c < 20; ++c) {
    const uint64_t seed = testutil::FuzzSeed(c);
    SCOPED_TRACE(testutil::FuzzTrace(c, seed));
    common::Rng rng(seed);
    std::vector<bool> model;
    std::vector<Column> versions = {Column(ValueType::kInt64, 512)};
    const int appends = static_cast<int>(rng.UniformInt(1, 12));
    for (int a = 0; a < appends; ++a) {
      Column next = versions.back();
      const int64_t n = rng.UniformInt(1, 100);
      // One chunk's worth in all.
      for (int64_t i = 0; i < n && model.size() < 512; ++i) {
        const bool v = rng.Bernoulli(0.8);
        Append(&next, v);
        model.push_back(v);
      }
      versions.push_back(std::move(next));
    }
    for (const Column& version : versions) {
      if (version.size() == 0) continue;
      const ValidityBitmap bm = version.chunk(0).validity();
      ASSERT_EQ(bm.size(), version.size());
      size_t valid = 0;
      for (size_t i = 0; i < bm.size(); ++i) {
        ASSERT_EQ(bm.Get(i), model[i]) << "i=" << i;
        valid += model[i] ? 1 : 0;
      }
      EXPECT_EQ(CountValid(bm), valid);
      EXPECT_EQ(version.chunk(0).null_count(), bm.size() - valid);
      EXPECT_EQ(version.chunk(0).AllValid(), valid == bm.size());
    }
  }
}

}  // namespace
}  // namespace muve::storage
