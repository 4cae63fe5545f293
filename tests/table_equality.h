// Deep table comparison for the ingest differential suites: two tables
// are identical when their schemas, cells (doubles bit for bit), null
// masks and chunk metadata all agree — chunk boundaries, zone maps,
// string dictionaries and codes, numeric dictionaries and codes.

#ifndef MUVE_TESTS_TABLE_EQUALITY_H_
#define MUVE_TESTS_TABLE_EQUALITY_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/chunk.h"
#include "storage/table.h"

namespace muve::testutil {

inline uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

inline std::vector<uint64_t> Bits(const std::vector<double>& values) {
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
    EXPECT_EQ(got.dict(), want.dict());
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

}  // namespace muve::testutil

#endif  // MUVE_TESTS_TABLE_EQUALITY_H_
