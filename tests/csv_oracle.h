// Record-at-a-time CSV reference for storage::ReadCsvString.
//
// The reader as it stood before ingest went columnar: every record is
// split into std::string fields, type inference parses each cell up to
// three times, and the table is built one Value row at a time through
// Table::AppendRow.  Slow, but each rule sits in one obvious place, which
// makes it the differential oracle of tests/storage/csv_differential_test.cc:
// the columnar reader must produce the same schema, the same cells (bit
// for bit) and the same chunk metadata, or the same error code and
// message.

#ifndef MUVE_TESTS_CSV_ORACLE_H_
#define MUVE_TESTS_CSV_ORACLE_H_

#include <string>
#include <vector>

#include "common/parse.h"
#include "common/status.h"
#include "common/string_util.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace muve::testutil {

namespace csv_oracle {

// Splits one logical CSV record into fields, honoring double quotes with
// "" escapes.  `pos` advances past the record (including the newline).
inline common::Result<std::vector<std::string>> ParseRecord(
    const std::string& text, size_t* pos, char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = *pos;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      // Consume the newline (handles \r\n).
      if (c == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
      ++i;
      break;
    }
    current.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return common::Status::ParseError("unterminated quoted CSV field");
  }
  fields.push_back(std::move(current));
  *pos = i;
  return fields;
}

inline bool ParseInt64(const std::string& text, int64_t* out) {
  auto parsed = common::ParseInt64Strict(common::Trim(text));
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

inline bool ParseDouble(const std::string& text, double* out) {
  auto parsed = common::ParseDoubleStrict(common::Trim(text));
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

inline common::Result<storage::Value> ParseCell(const std::string& raw,
                                                storage::ValueType type) {
  using storage::Value;
  using storage::ValueType;
  if (common::Trim(raw).empty()) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      int64_t v;
      if (ParseInt64(raw, &v)) return Value(v);
      // Integral doubles like "3.0" (or "9e18") that fit int64.
      double d;
      if (ParseDouble(raw, &d) && storage::FitsInt64Exactly(d)) {
        return Value(static_cast<int64_t>(d));
      }
      return common::Status::ParseError("cannot parse '" + raw +
                                        "' as int64");
    }
    case ValueType::kDouble: {
      double v;
      if (ParseDouble(raw, &v)) return Value(v);
      return common::Status::ParseError("cannot parse '" + raw +
                                        "' as double");
    }
    case ValueType::kString:
      return Value(raw);
    case ValueType::kNull:
      return Value::Null();
  }
  return common::Status::Internal("bad ValueType");
}

// The narrowest type that parses every non-empty cell of a column.
inline storage::ValueType InferType(
    const std::vector<std::vector<std::string>>& records, size_t col) {
  bool all_int = true;
  bool all_double = true;
  bool any_non_empty = false;
  for (const auto& rec : records) {
    if (col >= rec.size()) continue;
    const std::string& cell = rec[col];
    if (common::Trim(cell).empty()) continue;
    any_non_empty = true;
    int64_t iv;
    double dv;
    if (!ParseInt64(cell, &iv)) all_int = false;
    if (!ParseDouble(cell, &dv)) all_double = false;
    if (!all_double) break;
  }
  if (!any_non_empty) return storage::ValueType::kString;
  if (all_int) return storage::ValueType::kInt64;
  if (all_double) return storage::ValueType::kDouble;
  return storage::ValueType::kString;
}

}  // namespace csv_oracle

// storage::ReadCsvString's contract, record at a time.  Honors
// delimiter, schema and max_bytes (not exec).
inline common::Result<storage::Table> ReadCsvStringOracle(
    const std::string& text, const storage::CsvOptions& options = {}) {
  using namespace csv_oracle;
  using storage::Field;
  using storage::Schema;
  using storage::Table;
  using storage::Value;
  size_t pos = 0;
  if (text.empty()) {
    return common::Status::ParseError("empty CSV input");
  }
  if (text.size() > options.max_bytes) {
    return common::Status::IoError(
        "CSV input is " + std::to_string(text.size()) +
        " bytes, exceeds max_bytes=" + std::to_string(options.max_bytes));
  }
  MUVE_ASSIGN_OR_RETURN(const std::vector<std::string> header,
                        ParseRecord(text, &pos, options.delimiter));

  std::vector<std::vector<std::string>> records;
  while (pos < text.size()) {
    const size_t before = pos;
    MUVE_ASSIGN_OR_RETURN(std::vector<std::string> rec,
                          ParseRecord(text, &pos, options.delimiter));
    if (pos == before) break;  // no progress; defensive
    // Skip fully blank lines.
    if (rec.size() == 1 && common::Trim(rec[0]).empty()) continue;
    if (rec.size() != header.size()) {
      return common::Status::ParseError(
          "CSV record has " + std::to_string(rec.size()) +
          " fields, header has " + std::to_string(header.size()));
    }
    records.push_back(std::move(rec));
  }

  Schema schema;
  if (options.schema.has_value()) {
    const Schema& want = *options.schema;
    if (want.num_fields() != header.size()) {
      return common::Status::ParseError(
          "schema arity does not match CSV header");
    }
    for (size_t i = 0; i < header.size(); ++i) {
      if (!common::EqualsIgnoreCase(common::Trim(header[i]),
                                    want.field(i).name)) {
        return common::Status::ParseError(
            "CSV header '" + header[i] + "' does not match schema field '" +
            want.field(i).name + "'");
      }
    }
    schema = want;
  } else {
    for (size_t i = 0; i < header.size(); ++i) {
      const std::string name(common::Trim(header[i]));
      if (name.empty()) {
        return common::Status::ParseError("empty CSV header name");
      }
      MUVE_RETURN_IF_ERROR(
          schema.AddField(Field(name, InferType(records, i))));
    }
  }

  Table table(schema);
  std::vector<Value> row(schema.num_fields());
  for (const auto& rec : records) {
    for (size_t i = 0; i < rec.size(); ++i) {
      MUVE_ASSIGN_OR_RETURN(row[i], ParseCell(rec[i], schema.field(i).type));
    }
    MUVE_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_CSV_ORACLE_H_
