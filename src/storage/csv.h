// CSV import/export for tables.
//
// The reader supports a header row, quoted fields, type inference
// (int64 -> double -> string, with empty fields as NULL), and an optional
// caller-provided schema for exact typing and role annotations.
//
// It is one pass over the text into typed columns.  Unquoted fields are
// views of the text (only a field with quotes is unescaped), each
// cell is trimmed and parsed once, and no per-cell Value or per-record
// string vector is built.  Under inference a column keeps its cell views
// and the values parsed so far until its type is settled (csv.cc).

#ifndef MUVE_STORAGE_CSV_H_
#define MUVE_STORAGE_CSV_H_

#include <optional>
#include <string>

#include "common/exec_context.h"
#include "common/status.h"
#include "storage/table.h"

namespace muve::storage {

struct CsvOptions {
  char delimiter = ',';
  // When set, the file's columns must match the schema by (case-
  // insensitive) header name; cells parse to the schema's types.
  // When unset, types are inferred per column.
  std::optional<Schema> schema;
  // Input-size ceiling.  Inputs larger than this return IoError before
  // any parsing starts.  The default (2 GiB) is the point where size_t
  // offsets into the backing string stop being representable as the
  // 32-bit offsets some downstream consumers keep, so the guard turns a
  // would-be silent truncation into a typed, testable refusal.  Tests
  // lower it to exercise the path without allocating gigabytes.
  size_t max_bytes = size_t{2} << 30;
  // Execution control: the readers poll this every few thousand rows
  // while parsing and again while materializing columns, and abort with
  // the context's expiry Status once it expires — a deadline or cancel
  // interrupts a multi-gigabyte load mid-file instead of after it.
  // Null = unbounded (default).
  common::ExecContext* exec = nullptr;
};

// Load accounting: filled by the readers when passed (never required).
// `parse_ms` covers parse + type inference + column materialization (for
// ReadCsvFile, file I/O too); consumers fold it into ExecStats'
// setup-time accounting.
struct CsvLoadStats {
  int64_t rows = 0;
  int64_t bytes = 0;
  double parse_ms = 0.0;
};

// Parses CSV text into a table.  The first row is the header; blank and
// whitespace-only lines are skipped.  Cells are trimmed before parsing
// (string cells keep their text as written, quotes removed), and a
// blank cell is NULL.  Errors come in a fixed order: a tokenizing error
// anywhere in the text (a ragged row, an unterminated quote), then a
// header or schema error, then the first cell that does not parse, in
// row-major order.
common::Result<Table> ReadCsvString(const std::string& text,
                                    const CsvOptions& options = {},
                                    CsvLoadStats* stats = nullptr);

// Reads a CSV file from disk.  The file is read in one pre-sized
// allocation (sized by the file length) instead of stream-buffer chunks.
common::Result<Table> ReadCsvFile(const std::string& path,
                                  const CsvOptions& options = {},
                                  CsvLoadStats* stats = nullptr);

// Serializes `table` as CSV (header + rows).  Fields containing the
// delimiter, quotes, or newlines are quoted.
std::string WriteCsvString(const Table& table, char delimiter = ',');

// Writes `table` to `path`.
common::Status WriteCsvFile(const Table& table, const std::string& path,
                            char delimiter = ',');

}  // namespace muve::storage

#endif  // MUVE_STORAGE_CSV_H_
