#include "storage/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "pinned_versions.h"
#include "table_equality.h"

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

std::vector<double> DictOf(const ColumnChunk& chunk) {
  const std::span<const double> dict = chunk.numeric_dict();
  return {dict.begin(), dict.end()};
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
  EXPECT_EQ(DictOf(col.chunk(0)), (std::vector<double>{0, 1, 2, 4}));
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
  EXPECT_EQ(DictOf(col.chunk(1)), (std::vector<double>{5}));
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

Column Doubles(std::initializer_list<double> values) {
  Column col(ValueType::kDouble, /*chunk_rows=*/8);
  for (const double v : values) col.AppendDouble(v);
  return col;
}

// Two versions of one open tail chunk: the newest writer appends in
// place; the other lost the claim and moves its rows, dictionary
// included, into a store of its own.
TEST(NumericDictTest, CopyOnWriteTailCarriesTheDictionary) {
  Column original = Doubles({2.0, 1.0, 2.0});
  Column copy = original;  // shares the open tail chunk's store
  EXPECT_EQ(copy.AppendColumn(Doubles({3.0, 1.0})), 0u);
  EXPECT_EQ(copy.chunk(0).double_data(), original.chunk(0).double_data());
  EXPECT_EQ(original.AppendColumn(Doubles({9.0})), 3u);
  EXPECT_NE(original.chunk(0).double_data(), copy.chunk(0).double_data());
  EXPECT_EQ(DictOf(original.chunk(0)), (std::vector<double>{2.0, 1.0, 9.0}));
  EXPECT_EQ(DictOf(copy.chunk(0)), (std::vector<double>{2.0, 1.0, 3.0}));
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

Column Ints(int64_t begin, int64_t end) {
  Column col(ValueType::kInt64, /*chunk_rows=*/1024);
  for (int64_t v = begin; v < end; ++v) col.AppendInt64(v);
  return col;
}

void ExpectInts(const Column& col, int64_t end) {
  ASSERT_EQ(col.size(), static_cast<size_t>(end));
  for (int64_t v = 0; v < end; ++v) {
    ASSERT_EQ(col.Int64At(static_cast<size_t>(v)), v);
  }
}

// The newest writer appends in place: every version, pinned or not,
// reads the same store, and a pinned version keeps its row count.
TEST(TailStoreTest, AppendsWriteInPlacePastThePinnedRows) {
  Column col(ValueType::kInt64, /*chunk_rows=*/1024);
  EXPECT_EQ(col.AppendColumn(Ints(0, 10)), 0u);
  const Column pinned = col;
  const int64_t* store = col.chunk(0).int64_data();
  EXPECT_EQ(col.AppendColumn(Ints(10, 16)), 0u);
  col.AppendInt64(16);
  const Column pinned_more = col;
  EXPECT_EQ(col.AppendColumn(Ints(17, 1030)), 0u);  // fills, opens chunk 1
  EXPECT_EQ(col.chunk(0).int64_data(), store);
  EXPECT_EQ(pinned.chunk(0).int64_data(), store);
  ASSERT_EQ(col.num_chunks(), 2u);
  ExpectInts(pinned, 10);
  ExpectInts(pinned_more, 17);
  ExpectInts(col, 1030);
}

// Two clones of one table append different rows: each sees its own, the
// original sees neither.
TEST(TailStoreTest, ForkedTablesNeverSeeEachOthersRows) {
  const Table base = testutil::MixedRows(0, 100);
  const testutil::TableImage base_image = testutil::ImageOf(base);
  Table a = base.Clone();
  Table b = base.Clone();
  auto a_moved = a.AppendRows(testutil::MixedRows(100, 150));
  ASSERT_TRUE(a_moved.ok());
  EXPECT_EQ(*a_moved, 0u);  // the first fork writes in place
  auto b_moved = b.AppendRows(testutil::MixedRows(1000, 1070));
  ASSERT_TRUE(b_moved.ok());
  EXPECT_EQ(*b_moved, base.num_rows());  // the second copies
  EXPECT_EQ(testutil::ImageOf(base), base_image);
  ASSERT_EQ(a.num_rows(), 150u);
  ASSERT_EQ(b.num_rows(), 170u);
  for (size_t i = 0; i < 170; ++i) {
    const int64_t want_b = static_cast<int64_t>(i < 100 ? i : i + 900);
    ASSERT_EQ(b.column(0).Int64At(i), want_b);
    ASSERT_EQ(b.At(i, 1), Value("s" + std::to_string(want_b / 3)));
    if (i < 150) {
      ASSERT_EQ(a.column(0).Int64At(i), static_cast<int64_t>(i));
    }
  }
  EXPECT_EQ(a.column(1).chunk(0).CodeOf("s" + std::to_string(1000 / 3)),
            ColumnChunk::kNoCode);
  EXPECT_EQ(b.column(1).chunk(0).CodeOf("s" + std::to_string(149 / 3)),
            ColumnChunk::kNoCode);
}

// Versions built cell by cell (Table::AppendRow on a clone), pinned by
// readers while the writer appends.
TEST(TailStoreTest, PinnedVersionsReadTheSameUnderCellAppends) {
  std::shared_ptr<const Table> latest =
      std::make_shared<const Table>(testutil::MixedRows(0, 100));
  testutil::RunPinnedReaders(
      latest, 24, [&latest](size_t begin, size_t end) {
        Table next = latest->Clone();
        const Table rows = testutil::MixedRows(begin, end);
        std::vector<Value> row(rows.num_columns());
        for (size_t r = 0; r < rows.num_rows(); ++r) {
          for (size_t c = 0; c < row.size(); ++c) row[c] = rows.At(r, c);
          EXPECT_TRUE(next.AppendRow(row).ok());
        }
        latest = std::make_shared<const Table>(std::move(next));
        return latest;
      });
}

}  // namespace
}  // namespace muve::storage
