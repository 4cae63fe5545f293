// In-memory columnar table.
//
// Tables are append-only collections of typed columns.  Query operators
// (filter, group-by, binned aggregation) work over a `RowSet` — a list of
// selected row indexes — so subsets like the paper's D_Q (the query result
// being visually analyzed) never copy the data.

#ifndef MUVE_STORAGE_TABLE_H_
#define MUVE_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace muve::storage {

// Indexes of selected rows, sorted ascending by construction.
using RowSet = std::vector<uint32_t>;

// Returns {0, 1, ..., n-1}.
RowSet AllRows(size_t n);

class Table {
 public:
  // `chunk_rows` (power of two) sets the capacity of every column chunk;
  // tests use tiny chunks to exercise boundaries, production tables keep
  // the default (storage/chunk.h).
  explicit Table(Schema schema, size_t chunk_rows = kDefaultChunkRows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return *columns_[i]; }
  // Column lookup by (case-insensitive) name; NotFound on miss.
  common::Result<const Column*> ColumnByName(std::string_view name) const;

  // Appends one row; `values` must match the schema arity and types
  // (numeric coercion per Column::AppendValue applies).
  common::Status AppendRow(const std::vector<Value>& values);

  // Appends every row of `rows`, which has this table's arity, column by
  // column (Column::AppendColumn).  Same result and same error as AppendRow over each row in turn: the
  // first cell in row-major order that does not fit fails the call, and
  // the table is left unchanged.
  common::Status AppendRows(const Table& rows);

  // A table over already-built columns, one per schema field in order, of
  // the field's type, equal length and equal chunk_rows (checked).
  static Table FromColumns(Schema schema, std::vector<Column> columns);

  // Cell access via Value (allocates for strings).
  Value At(size_t row, size_t col) const { return columns_[col]->ValueAt(row); }

  void Reserve(size_t n);

  // Copy sharing every sealed chunk with the original: O(chunks), not
  // O(rows).  The open tail chunk copy-on-writes on the first append to
  // either side, so growing the clone never mutates data visible through
  // the original (the mechanism behind the catalog's copy-on-write append).
  Table Clone() const;

  // Rows per column chunk (uniform across columns).
  size_t chunk_rows() const { return chunk_rows_; }

  // Approximate resident bytes of all column data (stats observability).
  size_t ApproxBytes() const;

  // First `max_rows` rows rendered as an aligned text table (debugging).
  std::string ToString(size_t max_rows = 10) const;

 private:
  // AppendRow's error for a `got` cell that column `col` cannot store.
  common::Status MismatchError(size_t col, ValueType got) const;

  Schema schema_;
  size_t chunk_rows_;
  std::vector<std::unique_ptr<Column>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_TABLE_H_
