// Deep table comparison for the ingest differential suites: two tables
// are identical when their schemas, cells (doubles bit for bit), null
// masks and chunk metadata all agree — chunk boundaries, zone maps,
// string dictionaries and codes, numeric dictionaries and codes.
//
// TableImage copies everything a reader can see of a table version
// through the raw chunk arrays, so concurrency tests can check that a
// pinned version reads the same before, during and after later appends.

#ifndef MUVE_TESTS_TABLE_EQUALITY_H_
#define MUVE_TESTS_TABLE_EQUALITY_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/chunk.h"
#include "storage/table.h"

namespace muve::testutil {

inline uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

inline std::vector<uint64_t> Bits(std::span<const double> values) {
  std::vector<uint64_t> out;
  for (const double v : values) out.push_back(Bits(v));
  return out;
}

inline void ExpectSameChunk(const storage::ColumnChunk& got,
                            const storage::ColumnChunk& want) {
  using storage::ValueType;
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.capacity(), want.capacity());
  EXPECT_EQ(got.null_count(), want.null_count());
  EXPECT_EQ(got.HasRange(), want.HasRange());
  if (want.HasRange()) {
    EXPECT_EQ(Bits(got.min()), Bits(want.min()));
    EXPECT_EQ(Bits(got.max()), Bits(want.max()));
  }
  EXPECT_EQ(got.HasNaN(), want.HasNaN());
  EXPECT_EQ(got.HasNumericDict(), want.HasNumericDict());
  if (want.HasNumericDict() && want.size() > 0) {
    EXPECT_EQ(Bits(got.numeric_dict()), Bits(want.numeric_dict()));
    const std::vector<uint16_t> got_codes(
        got.numeric_codes(), got.numeric_codes() + got.size());
    const std::vector<uint16_t> want_codes(
        want.numeric_codes(), want.numeric_codes() + want.size());
    EXPECT_EQ(got_codes, want_codes);
  }
  if (want.type() == ValueType::kString) {
    EXPECT_EQ(std::vector<std::string>(got.dict().begin(), got.dict().end()),
              std::vector<std::string>(want.dict().begin(), want.dict().end()));
    const std::vector<uint32_t> got_codes(got.codes(),
                                          got.codes() + got.size());
    const std::vector<uint32_t> want_codes(want.codes(),
                                           want.codes() + want.size());
    EXPECT_EQ(got_codes, want_codes);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << "offset " << i;
    if (want.IsNull(i)) continue;
    if (want.type() == ValueType::kInt64) {
      ASSERT_EQ(got.Int64At(i), want.Int64At(i)) << "offset " << i;
    } else if (want.type() == ValueType::kDouble) {
      ASSERT_EQ(Bits(got.DoubleAt(i)), Bits(want.DoubleAt(i)))
          << "offset " << i;
    } else if (want.type() == ValueType::kString) {
      ASSERT_EQ(got.StringAt(i), want.StringAt(i)) << "offset " << i;
    }
  }
}

inline void ExpectSameTable(const storage::Table& got,
                            const storage::Table& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(got.chunk_rows(), want.chunk_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const storage::Field& gf = got.schema().field(c);
    const storage::Field& wf = want.schema().field(c);
    EXPECT_EQ(gf.name, wf.name);
    ASSERT_EQ(gf.type, wf.type);
    EXPECT_EQ(gf.role, wf.role);
    const storage::Column& gc = got.column(c);
    const storage::Column& wc = want.column(c);
    ASSERT_EQ(gc.type(), wc.type());
    ASSERT_EQ(gc.size(), wc.size());
    ASSERT_EQ(gc.num_chunks(), wc.num_chunks());
    for (size_t k = 0; k < wc.num_chunks(); ++k) {
      SCOPED_TRACE("chunk " + std::to_string(k));
      ExpectSameChunk(gc.chunk(k), wc.chunk(k));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// One chunk version as its readers see it, doubles as bits.
struct ChunkImage {
  size_t size = 0;
  size_t null_count = 0;
  bool has_range = false;
  uint64_t min = 0;
  uint64_t max = 0;
  bool has_nan = false;
  bool has_numeric_dict = false;
  std::vector<uint64_t> validity;
  std::vector<uint64_t> cells;
  std::vector<std::string> dict;
  std::vector<uint32_t> code_of;  // CodeOf each dictionary entry
  std::vector<uint64_t> numeric_dict;
  std::vector<uint16_t> numeric_codes;

  bool operator==(const ChunkImage&) const = default;
};

inline ChunkImage ImageOf(const storage::ColumnChunk& chunk) {
  using storage::ValueType;
  ChunkImage image;
  const size_t n = chunk.size();
  image.size = n;
  image.null_count = chunk.null_count();
  image.has_range = chunk.HasRange();
  if (chunk.HasRange()) {
    image.min = Bits(chunk.min());
    image.max = Bits(chunk.max());
  }
  image.has_nan = chunk.HasNaN();
  image.has_numeric_dict = chunk.HasNumericDict();
  const storage::ValidityBitmap valid = chunk.validity();
  for (size_t w = 0; w < valid.num_words(); ++w) {
    image.validity.push_back(valid.Word(w));
  }
  switch (chunk.type()) {
    case ValueType::kInt64:
      for (size_t i = 0; i < n; ++i) {
        image.cells.push_back(static_cast<uint64_t>(chunk.int64_data()[i]));
      }
      break;
    case ValueType::kDouble:
      for (size_t i = 0; i < n; ++i) {
        image.cells.push_back(Bits(chunk.double_data()[i]));
      }
      break;
    case ValueType::kString:
      for (size_t i = 0; i < n; ++i) image.cells.push_back(chunk.codes()[i]);
      for (const std::string& s : chunk.dict()) {
        image.dict.push_back(s);
        image.code_of.push_back(chunk.CodeOf(s));
      }
      break;
    case ValueType::kNull:
      break;
  }
  if (chunk.HasNumericDict()) {
    image.numeric_dict = Bits(chunk.numeric_dict());
    image.numeric_codes.assign(chunk.numeric_codes(),
                               chunk.numeric_codes() + n);
  }
  return image;
}

using TableImage = std::vector<std::vector<ChunkImage>>;

inline TableImage ImageOf(const storage::Table& table) {
  TableImage image(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const storage::Column& col = table.column(c);
    for (size_t k = 0; k < col.num_chunks(); ++k) {
      image[c].push_back(ImageOf(col.chunk(k)));
    }
  }
  return image;
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_TABLE_EQUALITY_H_
