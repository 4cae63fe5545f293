#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace muve::storage {

RowSet AllRows(size_t n) {
  RowSet rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

Table::Table(Schema schema, size_t chunk_rows)
    : schema_(std::move(schema)), chunk_rows_(chunk_rows) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.push_back(std::make_unique<Column>(f.type, chunk_rows_));
  }
}

common::Result<const Column*> Table::ColumnByName(std::string_view name) const {
  MUVE_ASSIGN_OR_RETURN(const size_t idx, schema_.FieldIndex(name));
  return columns_[idx].get();
}

common::Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return common::Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(columns_.size()));
  }
  // Validate all cells before mutating any column so a failed append
  // leaves the table unchanged.
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    if (v.is_null()) continue;
    const ValueType ct = columns_[i]->type();
    const bool ok =
        (ct == ValueType::kString && v.type() == ValueType::kString) ||
        (ct == ValueType::kDouble && v.is_numeric()) ||
        (ct == ValueType::kInt64 && v.type() == ValueType::kInt64) ||
        (ct == ValueType::kInt64 && v.type() == ValueType::kDouble &&
         FitsInt64Exactly(v.AsDoubleExact()));
    if (!ok) return MismatchError(i, v.type());
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const common::Status st = columns_[i]->AppendValue(values[i]);
    MUVE_CHECK(st.ok()) << st.ToString();
  }
  ++num_rows_;
  return common::Status::OK();
}

common::Result<size_t> Table::AppendRows(const Table& rows) {
  MUVE_DCHECK(rows.num_columns() == columns_.size());
  // The cell AppendRow would have hit first: lowest row, then column.
  size_t bad_row = rows.num_rows();
  size_t bad_col = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const size_t row = columns_[c]->FirstMismatch(rows.column(c));
    if (row < bad_row) {
      bad_row = row;
      bad_col = c;
    }
  }
  if (bad_row < rows.num_rows()) {
    return MismatchError(bad_col, rows.column(bad_col).type());
  }
  size_t moved = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    moved = std::max(moved, columns_[c]->AppendColumn(rows.column(c)));
  }
  num_rows_ += rows.num_rows();
  return moved;
}

common::Status Table::MismatchError(size_t col, ValueType got) const {
  return common::Status::TypeMismatch(
      "column '" + schema_.field(col).name + "' expects " +
      ValueTypeName(columns_[col]->type()) + ", got " + ValueTypeName(got));
}

Table Table::FromColumns(Schema schema, std::vector<Column> columns) {
  MUVE_CHECK(columns.size() == schema.num_fields())
      << columns.size() << " columns for " << schema.num_fields()
      << " fields";
  const size_t chunk_rows =
      columns.empty() ? kDefaultChunkRows : columns[0].chunk_rows();
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  Table table(std::move(schema), chunk_rows);
  for (size_t c = 0; c < columns.size(); ++c) {
    MUVE_CHECK(columns[c].type() == table.schema_.field(c).type &&
               columns[c].size() == rows &&
               columns[c].chunk_rows() == chunk_rows)
        << "column " << c << " does not match its field";
    table.columns_[c] = std::make_unique<Column>(std::move(columns[c]));
  }
  table.num_rows_ = rows;
  return table;
}

Table Table::Clone() const {
  Table copy(schema_, chunk_rows_);
  copy.columns_.clear();
  for (const auto& col : columns_) {
    // Column's copy constructor shares the chunk stores; neither side
    // can observe the other's growth.
    copy.columns_.push_back(std::make_unique<Column>(*col));
  }
  copy.num_rows_ = num_rows_;
  return copy;
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table);
  for (const auto& col : columns_) bytes += col->ApproxBytes();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream out;
  std::vector<size_t> widths(num_columns());
  const size_t shown = std::min(max_rows, num_rows_);
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < num_columns(); ++c) {
    widths[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(num_columns());
    for (size_t c = 0; c < num_columns(); ++c) {
      cells[r][c] = At(r, c).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c > 0) out << "  ";
    out << common::PadRight(schema_.field(c).name, widths[c]);
  }
  out << "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out << "  ";
      out << common::PadRight(cells[r][c], widths[c]);
    }
    out << "\n";
  }
  if (shown < num_rows_) {
    out << "... (" << num_rows_ - shown << " more rows)\n";
  }
  return out.str();
}

}  // namespace muve::storage
