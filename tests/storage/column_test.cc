#include "storage/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace muve::storage {
namespace {

TEST(ColumnTest, TypedAppendAndRead) {
  Column col(ValueType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-2);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Int64At(0), 5);
  EXPECT_EQ(col.Int64At(1), -2);
  EXPECT_DOUBLE_EQ(col.NumericAt(1), -2.0);
  EXPECT_EQ(col.ValueAt(0), Value(int64_t{5}));
}

TEST(ColumnTest, NullTracking) {
  Column col(ValueType::kDouble);
  col.AppendDouble(1.0);
  col.AppendNull();
  ASSERT_EQ(col.size(), 2u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.ValueAt(1).is_null());
}

TEST(ColumnTest, AppendValueCoercesIntegralDoubles) {
  Column col(ValueType::kInt64);
  EXPECT_TRUE(col.AppendValue(Value(3.0)).ok());
  EXPECT_EQ(col.Int64At(0), 3);
  EXPECT_FALSE(col.AppendValue(Value(3.5)).ok());
  EXPECT_EQ(col.size(), 1u);
}

TEST(ColumnTest, AppendValueIntIntoDouble) {
  Column col(ValueType::kDouble);
  EXPECT_TRUE(col.AppendValue(Value(int64_t{7})).ok());
  EXPECT_DOUBLE_EQ(col.DoubleAt(0), 7.0);
}

TEST(ColumnTest, AppendValueTypeMismatch) {
  Column col(ValueType::kString);
  EXPECT_FALSE(col.AppendValue(Value(1.0)).ok());
  Column num(ValueType::kDouble);
  EXPECT_FALSE(num.AppendValue(Value("nope")).ok());
}

TEST(ColumnTest, AppendNullValue) {
  Column col(ValueType::kString);
  EXPECT_TRUE(col.AppendValue(Value::Null()).ok());
  EXPECT_TRUE(col.IsNull(0));
}

TEST(ColumnTest, NumericMinMaxSkipNulls) {
  Column col(ValueType::kInt64);
  col.AppendNull();
  col.AppendInt64(4);
  col.AppendInt64(-1);
  col.AppendNull();
  col.AppendInt64(9);
  EXPECT_DOUBLE_EQ(*col.NumericMin(), -1.0);
  EXPECT_DOUBLE_EQ(*col.NumericMax(), 9.0);
}

TEST(ColumnTest, NumericMinMaxErrors) {
  Column str(ValueType::kString);
  str.AppendString("a");
  EXPECT_FALSE(str.NumericMin().ok());
  Column empty(ValueType::kDouble);
  EXPECT_FALSE(empty.NumericMax().ok());
  Column all_null(ValueType::kDouble);
  all_null.AppendNull();
  EXPECT_FALSE(all_null.NumericMin().ok());
}

TEST(ColumnTest, StringStorage) {
  Column col(ValueType::kString);
  col.AppendString("alpha");
  col.AppendString("beta");
  EXPECT_EQ(col.StringAt(1), "beta");
  EXPECT_EQ(col.ValueAt(0), Value("alpha"));
}

// Every non-NULL cell of every chunk decodes to its own value.
void ExpectCodesDecode(const Column& col) {
  for (size_t row = 0; row < col.size(); ++row) {
    const ColumnChunk& chunk = col.chunk(row >> col.chunk_shift());
    const size_t i = row & col.chunk_mask();
    ASSERT_TRUE(chunk.HasNumericDict()) << "row " << row;
    if (chunk.IsNull(i)) continue;
    EXPECT_EQ(chunk.numeric_dict()[chunk.numeric_codes()[i]],
              col.NumericAt(row))
        << "row " << row;
  }
}

TEST(NumericDictTest, CodesEveryCellAcrossChunks) {
  Column col(ValueType::kInt64, /*chunk_rows=*/8);
  for (int64_t v = 0; v < 30; ++v) {
    if (v % 7 == 3) {
      col.AppendNull();
    } else {
      col.AppendInt64(v % 5);
    }
  }
  ASSERT_EQ(col.num_chunks(), 4u);
  ExpectCodesDecode(col);
  // First-appearance order within a chunk: rows 0..7 hold 0,1,2,NULL,4,0,1,2.
  EXPECT_EQ(col.chunk(0).numeric_dict(), (std::vector<double>{0, 1, 2, 4}));
}

TEST(NumericDictTest, NegativeZeroSharesZerosEntry) {
  Column col(ValueType::kDouble);
  col.AppendDouble(-0.0);
  col.AppendDouble(0.0);
  col.AppendDouble(1.5);
  EXPECT_EQ(col.chunk(0).numeric_dict().size(), 2u);
  EXPECT_EQ(col.chunk(0).numeric_codes()[1], col.chunk(0).numeric_codes()[0]);
}

TEST(NumericDictTest, ChunkCrossingTheCapDropsItsDictionary) {
  const size_t cap = ColumnChunk::kMaxNumericDictSize;
  Column col(ValueType::kInt64, /*chunk_rows=*/2 * cap);
  for (size_t v = 0; v < cap; ++v) col.AppendInt64(static_cast<int64_t>(v));
  col.AppendInt64(7);  // repeat: still within the cap
  ASSERT_TRUE(col.chunk(0).HasNumericDict());
  EXPECT_EQ(col.chunk(0).numeric_dict().size(), cap);
  ExpectCodesDecode(col);
  col.AppendInt64(-1);  // one distinct value too many
  EXPECT_FALSE(col.chunk(0).HasNumericDict());
  EXPECT_TRUE(col.chunk(0).numeric_dict().empty());
  col.AppendInt64(3);  // stays high-cardinality
  EXPECT_FALSE(col.chunk(0).HasNumericDict());
  // The next chunk starts a fresh dictionary.
  for (size_t r = col.size(); r < 2 * cap + 2; ++r) col.AppendInt64(5);
  EXPECT_TRUE(col.chunk(1).HasNumericDict());
  EXPECT_EQ(col.chunk(1).numeric_dict(), (std::vector<double>{5}));
}

TEST(NumericDictTest, NaNDropsTheDictionary) {
  Column col(ValueType::kDouble);
  col.AppendDouble(1.0);
  col.AppendDouble(std::nan(""));
  EXPECT_FALSE(col.chunk(0).HasNumericDict());
}

TEST(NumericDictTest, StringColumnsHaveNoNumericDictionary) {
  Column col(ValueType::kString);
  col.AppendString("a");
  EXPECT_FALSE(col.chunk(0).HasNumericDict());
  MergedNumericDict merged;
  EXPECT_FALSE(col.MergeNumericDicts(0, 1, &merged));
}

TEST(NumericDictTest, CopyOnWriteTailCarriesTheDictionary) {
  Column original(ValueType::kDouble, /*chunk_rows=*/8);
  for (const double v : {2.0, 1.0, 2.0}) original.AppendDouble(v);
  Column copy = original;  // shares the open tail chunk
  copy.AppendDouble(3.0);
  copy.AppendDouble(1.0);
  original.AppendDouble(9.0);
  EXPECT_EQ(original.chunk(0).numeric_dict(),
            (std::vector<double>{2.0, 1.0, 9.0}));
  EXPECT_EQ(copy.chunk(0).numeric_dict(),
            (std::vector<double>{2.0, 1.0, 3.0}));
  ExpectCodesDecode(original);
  ExpectCodesDecode(copy);
}

TEST(NumericDictTest, MergeSortsTheUnionAndRemapsEveryChunk) {
  Column col(ValueType::kInt64, /*chunk_rows=*/4);
  for (const int64_t v : {5, 1, 5, 3, /**/ 3, 9, 1, 1, /**/ 7}) {
    col.AppendInt64(v);
  }
  MergedNumericDict merged;
  ASSERT_TRUE(col.MergeNumericDicts(0, col.num_chunks(), &merged));
  EXPECT_EQ(merged.values, (std::vector<double>{1, 3, 5, 7, 9}));
  for (size_t row = 0; row < col.size(); ++row) {
    const size_t c = row >> col.chunk_shift();
    const uint16_t code = col.chunk(c).numeric_codes()[row & col.chunk_mask()];
    EXPECT_EQ(merged.values[merged.remap[merged.remap_begin[c] + code]],
              col.NumericAt(row))
        << "row " << row;
  }
  // A sub-range merges only its own chunks.
  ASSERT_TRUE(col.MergeNumericDicts(1, 3, &merged));
  EXPECT_EQ(merged.values, (std::vector<double>{1, 3, 7, 9}));
}

}  // namespace
}  // namespace muve::storage
