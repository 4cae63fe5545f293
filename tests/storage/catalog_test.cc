// Catalog semantics: create / drop / get / append under MVCC snapshots,
// the data_epoch / base_epoch contract, all-or-nothing appends, and
// snapshot immutability under concurrent ingest (run under
// -DMUVE_SANITIZE=thread via the `tsan` label).

#include "storage/catalog.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "pinned_versions.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace muve::storage {
namespace {

Schema TwoIntSchema() {
  return Schema({Field("id", ValueType::kInt64, FieldRole::kNone),
                 Field("v", ValueType::kInt64, FieldRole::kMeasure)});
}

// Rows [begin, end) with id = i, v = 2 * i.
Table MakeRows(size_t begin, size_t end, size_t chunk_rows = 8) {
  Table t(TwoIntSchema(), chunk_rows);
  for (size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(i)),
                     Value(static_cast<int64_t>(2 * i))})
            .ok());
  }
  return t;
}

TEST(CatalogTest, CreateGetDropLifecycle) {
  Catalog catalog;
  EXPECT_FALSE(catalog.Contains("t"));
  EXPECT_EQ(catalog.Get("t").status().code(), common::StatusCode::kNotFound);

  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 10)).ok());
  EXPECT_TRUE(catalog.Contains("t"));

  auto snap = catalog.Get("t");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->table->num_rows(), 10u);
  EXPECT_EQ(snap->data_epoch, 1u);

  EXPECT_EQ(catalog.Create("t", MakeRows(0, 1)).code(),
            common::StatusCode::kAlreadyExists);

  ASSERT_TRUE(catalog.Drop("t").ok());
  EXPECT_FALSE(catalog.Contains("t"));
  EXPECT_EQ(catalog.Drop("t").code(), common::StatusCode::kNotFound);

  // The snapshot taken before the drop stays readable.
  EXPECT_EQ(snap->table->num_rows(), 10u);
  EXPECT_EQ(snap->table->At(9, 1).AsInt64(), 18);
}

TEST(CatalogTest, ListIsSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("zeta", MakeRows(0, 1)).ok());
  ASSERT_TRUE(catalog.Create("alpha", MakeRows(0, 1)).ok());
  ASSERT_TRUE(catalog.Create("mid", MakeRows(0, 1)).ok());
  EXPECT_EQ(catalog.List(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(CatalogTest, AppendBumpsDataEpochPreservesBaseEpoch) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 10)).ok());
  auto before = catalog.Get("t");
  ASSERT_TRUE(before.ok());

  auto appended = catalog.Append("t", MakeRows(10, 25));
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->rows_before, 10u);
  EXPECT_EQ(appended->rows_appended, 15u);
  EXPECT_EQ(appended->snapshot.table->num_rows(), 25u);
  EXPECT_EQ(appended->snapshot.data_epoch, before->data_epoch + 1);
  EXPECT_EQ(appended->snapshot.base_epoch, before->base_epoch);

  // Row ids are stable: the appended version extends, never reorders.
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(appended->snapshot.table->At(i, 0).AsInt64(),
              static_cast<int64_t>(i));
  }
  // The pre-append snapshot still sees exactly its 10 rows.
  EXPECT_EQ(before->table->num_rows(), 10u);

  EXPECT_EQ(catalog.Append("missing", MakeRows(0, 1)).status().code(),
            common::StatusCode::kNotFound);
}

TEST(CatalogTest, AppendIsAllOrNothing) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 10)).ok());

  // A batch whose first column is string-typed cannot append into the
  // int64 id column; the whole batch must be rejected with the published
  // version untouched.
  Schema str_schema({Field("id", ValueType::kString, FieldRole::kNone),
                     Field("v", ValueType::kInt64, FieldRole::kMeasure)});
  Table bad_rows(str_schema, 8);
  ASSERT_TRUE(bad_rows.AppendRow({Value("x"), Value(int64_t{1})}).ok());

  auto result = catalog.Append("t", bad_rows);
  EXPECT_FALSE(result.ok());

  auto snap = catalog.Get("t");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->table->num_rows(), 10u);
  EXPECT_EQ(snap->data_epoch, 1u);
}

// A type-mismatch batch writes nothing, so the good batch after it still
// appends in place — and neither touches the version published before
// them.
TEST(CatalogTest, FailedBatchThenGoodBatchLeaveThePublishedVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 10)).ok());
  auto pinned = catalog.Get("t");
  ASSERT_TRUE(pinned.ok());
  const testutil::TableImage image = testutil::ImageOf(*pinned->table);

  Table bad_cells(Schema({Field("id", ValueType::kInt64, FieldRole::kNone),
                          Field("v", ValueType::kDouble, FieldRole::kNone)}),
                  8);
  ASSERT_TRUE(bad_cells.AppendRow({Value(int64_t{10}), Value(0.5)}).ok());
  EXPECT_EQ(catalog.Append("t", bad_cells).status().code(),
            common::StatusCode::kTypeMismatch);

  auto good = catalog.Append("t", MakeRows(10, 13));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->rows_copied, 0u);
  EXPECT_EQ(testutil::ImageOf(*pinned->table), image);
  const Table& table = *good->snapshot.table;
  ASSERT_EQ(table.num_rows(), 13u);
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(table.At(i, 0).AsInt64(), static_cast<int64_t>(i));
    EXPECT_EQ(table.At(i, 1).AsInt64(), static_cast<int64_t>(2 * i));
  }
}

// Readers pin snapshots and re-read them through the raw chunk arrays
// while the writer appends batches with NULLs mid-word, new strings, a
// numeric dictionary overflow and chunk crossings (pinned_versions.h).
// Every append writes in place: no row is ever moved.
TEST(CatalogTest, PinnedSnapshotsReadTheSameUnderAppends) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", testutil::MixedRows(0, 100)).ok());
  auto initial = catalog.Get("t");
  ASSERT_TRUE(initial.ok());
  size_t copied = 0;
  testutil::RunPinnedReaders(
      initial->table, 24, [&](size_t begin, size_t end) {
        auto appended = catalog.Append("t", testutil::MixedRows(begin, end));
        EXPECT_TRUE(appended.ok());
        copied += appended->rows_copied;
        return appended->snapshot.table;
      });
  EXPECT_EQ(copied, 0u);
}

TEST(CatalogTest, RecreateAfterDropGetsFreshBaseEpoch) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 4)).ok());
  auto first = catalog.Get("t");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(catalog.Drop("t").ok());
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 4)).ok());
  auto second = catalog.Get("t");
  ASSERT_TRUE(second.ok());
  // A recreated name must never alias derived state of its predecessor.
  EXPECT_NE(second->base_epoch, first->base_epoch);
}

TEST(CatalogTest, InvalidateBumpsBothEpochs) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, 4)).ok());
  auto before = catalog.Get("t");
  ASSERT_TRUE(before.ok());

  auto after = catalog.Invalidate("t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->data_epoch, before->data_epoch + 1);
  EXPECT_NE(after->base_epoch, before->base_epoch);
  EXPECT_EQ(after->table->num_rows(), 4u);

  EXPECT_EQ(catalog.Invalidate("missing").status().code(),
            common::StatusCode::kNotFound);
}

// Readers snapshot while a writer appends: every snapshot must be a
// consistent prefix — id column equal to the row index everywhere, and
// the value sum matching the closed form for its row count.  Exercises
// the shared tail store under real concurrency (TSan-sensitive).
TEST(CatalogTest, ConcurrentReadersSeeConsistentSnapshots) {
  constexpr size_t kBatch = 7;       // deliberately not the chunk size
  constexpr size_t kAppends = 40;
  constexpr size_t kInitial = 16;

  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", MakeRows(0, kInitial)).ok());

  std::thread writer([&catalog]() {
    size_t next = kInitial;
    for (size_t i = 0; i < kAppends; ++i) {
      auto result = catalog.Append("t", MakeRows(next, next + kBatch));
      ASSERT_TRUE(result.ok());
      next += kBatch;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&]() {
      for (int iter = 0; iter < 60; ++iter) {
        auto snap = catalog.Get("t");
        ASSERT_TRUE(snap.ok());
        const Table& table = *snap->table;
        const size_t n = table.num_rows();
        ASSERT_GE(n, kInitial);
        ASSERT_EQ((n - kInitial) % kBatch, 0u);
        int64_t sum = 0;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(table.At(i, 0).AsInt64(), static_cast<int64_t>(i));
          sum += table.At(i, 1).AsInt64();
        }
        // v = 2 * i  =>  sum = n * (n - 1).
        ASSERT_EQ(sum, static_cast<int64_t>(n) * static_cast<int64_t>(n - 1));
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();

  auto final_snap = catalog.Get("t");
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ(final_snap->table->num_rows(), kInitial + kAppends * kBatch);
  EXPECT_EQ(final_snap->data_epoch, 1u + kAppends);
}

}  // namespace
}  // namespace muve::storage
