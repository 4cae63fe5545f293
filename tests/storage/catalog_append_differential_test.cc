// Differential fuzz: Catalog::Append's column-to-column path against the
// row-at-a-time loop it replaced (clone, then Table::AppendRow per row of
// Values).
//
// Small chunk sizes on both sides make batches cross chunk boundaries;
// the columns carry NULLs, string dictionaries, a numeric column whose
// distinct values outgrow kMaxNumericDictSize, NaN cells, and batches of
// other types that coerce (int64 into double, integral doubles into
// int64) or do not.  Every append must publish exactly the table the row
// loop builds — cells, zone maps, dictionaries and codes — or fail with
// the same error, publishing nothing.  Between appends, Clone forks of
// random earlier versions append batches of their own — before the
// catalog's append (the fork takes the shared tail store's claim, so the
// catalog must copy) or after it (the fork copies).  Every snapshot
// taken along the way and every fork must still equal its version at the
// end (tail-store isolation).  MUVE_FUZZ_SEED reseeds the run
// (tests/fuzz_util.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_util.h"
#include "storage/catalog.h"
#include "table_equality.h"

namespace muve::storage {
namespace {

using testutil::FuzzSeed;
using testutil::FuzzTrace;

Schema TableSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString},
                 {"wide", ValueType::kInt64},
                 {"f", ValueType::kDouble}});
}

// The append as it was: clone, then one Value row at a time.
common::Result<Table> RowWiseAppend(const Table& current, const Table& rows) {
  if (rows.num_columns() != current.num_columns()) {
    return common::Status::InvalidArgument(
        "append arity " + std::to_string(rows.num_columns()) +
        " != table arity " + std::to_string(current.num_columns()));
  }
  Table next = current.Clone();
  std::vector<Value> row(rows.num_columns());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    for (size_t c = 0; c < rows.num_columns(); ++c) row[c] = rows.At(r, c);
    MUVE_RETURN_IF_ERROR(next.AppendRow(row));
  }
  return next;
}

bool Chance(common::Rng& rng, int percent) {
  return rng.UniformInt(0, 99) < percent;
}

// One cell of type `type` for a column stored as `dest`.  Mostly cells
// that fit; `bad` allows the ones that do not.
Value MakeCell(common::Rng& rng, ValueType type, ValueType dest,
               bool wide, bool bad) {
  if (type == ValueType::kNull || Chance(rng, 10)) return Value::Null();
  switch (type) {
    case ValueType::kInt64:
      return Value(wide ? rng.UniformInt(-1000000, 1000000)
                        : rng.UniformInt(-20, 20));
    case ValueType::kDouble: {
      if (dest == ValueType::kInt64) {
        if (bad && Chance(rng, 3)) {
          const double odd[] = {2.5, 1e30, -1e30, std::nan(""),
                                9223372036854775808.0};
          return Value(odd[rng.UniformInt(0, 4)]);
        }
        const double whole[] = {-3.0, 0.0, -0.0, 7.0, 9007199254740992.0,
                                -9223372036854775808.0};
        return Value(Chance(rng, 50) ? whole[rng.UniformInt(0, 5)]
                                     : static_cast<double>(
                                           rng.UniformInt(-50, 50)));
      }
      if (Chance(rng, 3)) return Value(std::nan(""));
      if (Chance(rng, 3)) return Value(-0.0);
      return Value(wide ? rng.Uniform(-1.0, 1.0)
                        : static_cast<double>(rng.UniformInt(0, 9)) / 4);
    }
    case ValueType::kString: {
      if (Chance(rng, 20)) return Value("s" + std::to_string(rng.NextUint64()));
      const char* pool[] = {"north", "south", "east", "west", "", "a,b"};
      return Value(pool[rng.UniformInt(0, 5)]);
    }
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

// The type a batch column arrives as: usually the table's own, sometimes
// one that coerces, rarely (when `bad`) one that cannot fit at all.
ValueType BatchType(common::Rng& rng, ValueType dest, bool bad) {
  const int64_t k = rng.UniformInt(0, 99);
  if (k < 70) return dest;
  if (k < 80) return ValueType::kNull;
  if (dest == ValueType::kDouble && k < 95) return ValueType::kInt64;
  if (dest == ValueType::kInt64 && k < 95) return ValueType::kDouble;
  if (!bad) return dest;
  return dest == ValueType::kString ? ValueType::kInt64 : ValueType::kString;
}

Table MakeBatch(common::Rng& rng, const Schema& dest, size_t rows,
                size_t chunk_rows, bool bad) {
  Schema schema;
  for (const Field& f : dest.fields()) {
    EXPECT_TRUE(
        schema.AddField(Field(f.name, BatchType(rng, f.type, bad))).ok());
  }
  Table batch(schema, chunk_rows);
  std::vector<Value> row(schema.num_fields());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] = MakeCell(rng, schema.field(c).type, dest.field(c).type,
                        dest.field(c).name == "wide", bad);
    }
    EXPECT_TRUE(batch.AppendRow(row).ok());
  }
  return batch;
}

struct Version {
  Catalog::Snapshot snapshot;
  std::shared_ptr<const Table> expected;
};

struct Fork {
  Table table;
  std::shared_ptr<const Table> expected;
};

// Clones a random pinned version and appends a good batch to the clone.
void AppendToFork(common::Rng& rng, const std::vector<Version>& versions,
                  size_t max_rows, size_t batch_chunk_rows,
                  std::vector<Fork>* forks) {
  const Version& from = versions[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(versions.size()) - 1))];
  const Table batch =
      MakeBatch(rng, TableSchema(),
                static_cast<size_t>(rng.UniformInt(1, max_rows)),
                batch_chunk_rows, false);
  auto want = RowWiseAppend(*from.expected, batch);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  Table fork = from.snapshot.table->Clone();
  ASSERT_TRUE(fork.AppendRows(batch).ok());
  testutil::ExpectSameTable(fork, *want);
  forks->push_back(
      {std::move(fork), std::make_shared<const Table>(std::move(*want))});
}

void RunCase(common::Rng& rng) {
  // Big cases put > kMaxNumericDictSize distinct values in one chunk.
  const bool big = Chance(rng, 10);
  const size_t chunk_rows =
      big ? 8192 : size_t{1} << rng.UniformInt(2, 6);
  const size_t batch_chunk_rows = size_t{1} << rng.UniformInt(1, 10);
  const size_t max_rows = big ? 3000 : 40;

  Table initial(TableSchema(), chunk_rows);
  {
    const Table seed =
        MakeBatch(rng, TableSchema(),
                  static_cast<size_t>(rng.UniformInt(0, max_rows)),
                  batch_chunk_rows, false);
    auto built = RowWiseAppend(initial, seed);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    initial = std::move(*built);
  }
  auto expected = std::make_shared<const Table>(initial.Clone());
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", std::move(initial)).ok());

  std::vector<Version> versions;
  std::vector<Fork> forks;
  const int batches = static_cast<int>(rng.UniformInt(1, 6));
  for (int b = 0; b < batches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    auto before = catalog.Get("t");
    ASSERT_TRUE(before.ok());
    versions.push_back({*before, expected});
    if (Chance(rng, 30)) {
      AppendToFork(rng, versions, max_rows, batch_chunk_rows, &forks);
      if (::testing::Test::HasFatalFailure()) return;
    }

    const bool bad = Chance(rng, 25);
    Table batch = Chance(rng, 2)
                      ? Table(Schema({{"id", ValueType::kInt64}}))
                      : MakeBatch(rng, TableSchema(),
                                  static_cast<size_t>(
                                      rng.UniformInt(0, max_rows)),
                                  batch_chunk_rows, bad);
    auto want = RowWiseAppend(*expected, batch);
    auto got = catalog.Append("t", batch);
    ASSERT_EQ(got.ok(), want.ok())
        << (got.ok() ? "column-wise appended" : got.status().ToString())
        << " vs "
        << (want.ok() ? "row-wise appended" : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
      // Nothing published: the same version, pointer and epoch.
      auto after = catalog.Get("t");
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after->table, before->table);
      EXPECT_EQ(after->data_epoch, before->data_epoch);
      continue;
    }
    EXPECT_EQ(got->rows_before, expected->num_rows());
    EXPECT_EQ(got->rows_appended, batch.num_rows());
    EXPECT_EQ(got->snapshot.data_epoch, before->data_epoch + 1);
    expected = std::make_shared<const Table>(std::move(*want));
    testutil::ExpectSameTable(*got->snapshot.table, *expected);
    if (::testing::Test::HasFatalFailure()) return;
    if (Chance(rng, 30)) {
      versions.push_back({got->snapshot, expected});
      AppendToFork(rng, versions, max_rows, batch_chunk_rows, &forks);
      versions.pop_back();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Later appends left every earlier snapshot and every fork as it was.
  for (size_t v = 0; v < versions.size(); ++v) {
    SCOPED_TRACE("snapshot " + std::to_string(v));
    testutil::ExpectSameTable(*versions[v].snapshot.table,
                              *versions[v].expected);
  }
  for (size_t f = 0; f < forks.size(); ++f) {
    SCOPED_TRACE("fork " + std::to_string(f));
    testutil::ExpectSameTable(forks[f].table, *forks[f].expected);
  }
}

TEST(CatalogAppendDifferentialTest, ColumnWiseMatchesRowWise) {
  for (int i = 0; i < 400; ++i) {
    const uint64_t seed = FuzzSeed(static_cast<uint64_t>(i));
    SCOPED_TRACE(FuzzTrace(static_cast<uint64_t>(i), seed));
    common::Rng rng(seed);
    RunCase(rng);
    if (HasFatalFailure()) return;
  }
}

// The first bad cell in row-major order decides the error, whichever
// column holds it.
TEST(CatalogAppendDifferentialTest, FirstBadCellIsRowMajor) {
  Schema dest({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Catalog catalog;
  ASSERT_TRUE(catalog.Create("t", Table(dest, 4)).ok());
  Table batch(Schema({{"a", ValueType::kDouble}, {"b", ValueType::kString}}),
              2);
  ASSERT_TRUE(batch.AppendRow({Value(1.0), Value::Null()}).ok());
  ASSERT_TRUE(batch.AppendRow({Value(2.0), Value("x")}).ok());
  ASSERT_TRUE(batch.AppendRow({Value(2.5), Value("y")}).ok());
  auto got = catalog.Append("t", batch);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), common::StatusCode::kTypeMismatch);
  EXPECT_EQ(got.status().message(), "column 'b' expects int64, got string");
}

}  // namespace
}  // namespace muve::storage
