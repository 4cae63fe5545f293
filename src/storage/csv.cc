#include "storage/csv.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/parse.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace muve::storage {

namespace {

// Poll cadence for CsvOptions::exec: cheap relative to parsing ~4K
// records yet fine-grained enough that a cancel lands within
// milliseconds.
constexpr size_t kExecPollRows = 4096;

// Splits CSV text into records of fields.  An unquoted field is a view
// into the text; a field with a quote is unescaped into storage that
// outlives the tokenizer's later records.
//
// Quoting follows one state machine: a '"' outside quotes opens a quoted
// run anywhere in a field, "" inside a run is a literal quote, and a
// lone '"' closes the run.  Records end at \n, \r\n or a lone \r outside
// quotes.
class CsvTokenizer {
 public:
  CsvTokenizer(std::string_view text, char delimiter)
      : text_(text), delimiter_(delimiter) {
    for (const char c : {delimiter, '\n', '\r', '"'}) {
      special_[static_cast<unsigned char>(c)] = true;
    }
  }

  bool done() const { return pos_ >= text_.size(); }

  // Splits the next record into `fields` and moves past it.
  common::Status Next(std::vector<std::string_view>* fields) {
    fields->clear();
    const size_t n = text_.size();
    size_t i = pos_;
    while (true) {
      const size_t start = i;
      while (i < n && !special_[static_cast<unsigned char>(text_[i])]) ++i;
      if (i < n && text_[i] == '"') {
        MUVE_RETURN_IF_ERROR(QuotedField(start, &i, fields));
      } else {
        fields->push_back(text_.substr(start, i - start));
      }
      if (i >= n) break;
      const char c = text_[i++];
      if (c == delimiter_) continue;
      if (c == '\r' && i < n && text_[i] == '\n') ++i;
      break;
    }
    pos_ = i;
    return common::Status::OK();
  }

 private:
  // The field starting at `start`, whose first quote is at `*i`; leaves
  // `*i` at the delimiter, newline or end of text that ends it.
  common::Status QuotedField(size_t start, size_t* i,
                             std::vector<std::string_view>* fields) {
    const size_t n = text_.size();
    std::string& out = unescaped_.emplace_back(text_.substr(start, *i - start));
    bool in_quotes = false;
    size_t j = *i;
    for (; j < n; ++j) {
      const char c = text_[j];
      if (in_quotes) {
        if (c != '"') {
          out.push_back(c);
        } else if (j + 1 < n && text_[j + 1] == '"') {
          out.push_back('"');
          ++j;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == delimiter_ || c == '\n' || c == '\r') {
        break;
      } else {
        out.push_back(c);
      }
    }
    if (in_quotes) return Unterminated();
    fields->push_back(out);
    *i = j;
    return common::Status::OK();
  }

  static common::Status Unterminated() {
    return common::Status::ParseError("unterminated quoted CSV field");
  }

  std::string_view text_;
  char delimiter_;
  bool special_[256] = {};
  size_t pos_ = 0;
  // Unescaped fields; a deque, so earlier fields never move.
  std::deque<std::string> unescaped_;
};

// Parses one trimmed, non-empty cell for an int64 column: an int64
// token, or an integral double token that fits ("3.0", "9e18").
bool ParseInt64Cell(std::string_view cell, int64_t* out) {
  if (common::TryParseInt64(cell, out)) return true;
  double d;
  if (!common::TryParseDouble(cell, &d) || !FitsInt64Exactly(d)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

// Appends one cell, as the record held it, to a column of the schema's
// type: blank (after trimming) is NULL, numbers are parsed trimmed,
// strings are kept verbatim.  False when the cell does not parse.
bool AppendCell(std::string_view raw, Column* column) {
  const std::string_view cell = common::Trim(raw);
  if (cell.empty()) {
    column->AppendNull();
    return true;
  }
  switch (column->type()) {
    case ValueType::kInt64: {
      int64_t v;
      if (!ParseInt64Cell(cell, &v)) return false;
      column->AppendInt64(v);
      return true;
    }
    case ValueType::kDouble: {
      double v;
      if (!common::TryParseDouble(cell, &v)) return false;
      column->AppendDouble(v);
      return true;
    }
    case ValueType::kString:
      column->AppendString(raw);
      return true;
    case ValueType::kNull:
      column->AppendNull();
      return true;
  }
  return false;
}

// One column's cells under schema-less inference.  The column is int64
// if every non-blank cell parses as int64, else double if every one
// parses as double, else string (and string when every cell is blank).
// Parsed values are kept while the column can still be numeric, so each
// cell is parsed once as the type it ends up with.
class InferredColumn {
 public:
  explicit InferredColumn(size_t expected_rows) {
    cells_.reserve(expected_rows);
    ints_.reserve(expected_rows);
  }

  void Add(std::string_view raw) {
    cells_.push_back(raw);
    const std::string_view cell = common::Trim(raw);
    if (cell.empty()) {
      if (all_int_) {
        ints_.push_back(0);
      } else if (all_double_) {
        doubles_.push_back(0.0);
      }
      return;
    }
    any_value_ = true;
    if (all_int_) {
      int64_t v;
      if (common::TryParseInt64(cell, &v)) {
        ints_.push_back(v);
        return;
      }
      // The first non-int64 cell.  Every earlier cell parsed as int64,
      // so it parses as double too (the int64 grammar is a subset).
      all_int_ = false;
      std::vector<int64_t>().swap(ints_);
      doubles_.reserve(cells_.capacity());
      for (size_t r = 0; r + 1 < cells_.size(); ++r) {
        double d = 0.0;
        common::TryParseDouble(common::Trim(cells_[r]), &d);
        doubles_.push_back(d);
      }
    }
    if (!all_double_) return;
    double d;
    if (common::TryParseDouble(cell, &d)) {
      doubles_.push_back(d);
      return;
    }
    all_double_ = false;
    std::vector<double>().swap(doubles_);
  }

  ValueType type() const {
    if (!any_value_) return ValueType::kString;
    if (all_int_) return ValueType::kInt64;
    if (all_double_) return ValueType::kDouble;
    return ValueType::kString;
  }

  // The typed column, polling `exec` every kExecPollRows rows.
  common::Result<Column> Build(common::ExecContext* exec) const {
    const ValueType t = type();
    Column column(t);
    for (size_t r = 0; r < cells_.size(); ++r) {
      if (exec != nullptr && r % kExecPollRows == 0 && exec->Expired()) {
        return exec->ExpiryStatus();
      }
      if (common::Trim(cells_[r]).empty()) {
        column.AppendNull();
      } else if (t == ValueType::kInt64) {
        column.AppendInt64(ints_[r]);
      } else if (t == ValueType::kDouble) {
        column.AppendDouble(doubles_[r]);
      } else {
        column.AppendString(cells_[r]);
      }
    }
    return column;
  }

 private:
  std::vector<std::string_view> cells_;
  std::vector<int64_t> ints_;     // one per cell while all_int_ (0 = blank)
  std::vector<double> doubles_;   // one per cell once !all_int_, while
                                  // all_double_ (0.0 = blank)
  bool all_int_ = true;
  bool all_double_ = true;
  bool any_value_ = false;
};

// Header error under an explicit schema: arity, or a header name that
// does not match the schema's.
common::Status CheckHeader(const std::vector<std::string>& header,
                           const Schema& want) {
  if (want.num_fields() != header.size()) {
    return common::Status::ParseError("schema arity does not match CSV header");
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (!common::EqualsIgnoreCase(common::Trim(header[i]),
                                  want.field(i).name)) {
      return common::Status::ParseError(
          "CSV header '" + header[i] + "' does not match schema field '" +
          want.field(i).name + "'");
    }
  }
  return common::Status::OK();
}

}  // namespace

common::Result<Table> ReadCsvString(const std::string& text,
                                    const CsvOptions& options,
                                    CsvLoadStats* stats) {
  common::Stopwatch timer;
  if (text.empty()) {
    return common::Status::ParseError("empty CSV input");
  }
  if (text.size() > options.max_bytes) {
    return common::Status::IoError(
        "CSV input is " + std::to_string(text.size()) +
        " bytes, exceeds max_bytes=" + std::to_string(options.max_bytes));
  }
  CsvTokenizer tokenizer(text, options.delimiter);
  std::vector<std::string_view> fields;
  MUVE_RETURN_IF_ERROR(tokenizer.Next(&fields));
  const std::vector<std::string> header(fields.begin(), fields.end());
  const size_t width = header.size();

  // Errors surface in a fixed order: tokenizing (a ragged row, an
  // unterminated quote) anywhere in the text, then the header, then the
  // first bad cell in row-major order.  Under a schema the latter two are
  // held in `deferred` while the rest of the text is still tokenized;
  // under inference the header is checked last and no cell can fail.
  const bool infer = !options.schema.has_value();
  common::Status deferred =
      infer ? common::Status::OK() : CheckHeader(header, *options.schema);
  std::vector<Column> columns;
  std::vector<InferredColumn> inferred;
  if (infer) {
    // One record per newline: quoted newlines and blank lines only
    // over-count, so the per-column buffers do not regrow (unless the
    // lines end in a lone \r).
    const size_t expected_rows = static_cast<size_t>(
        std::count(text.begin(), text.end(), '\n') + 1);
    inferred.reserve(width);
    for (size_t i = 0; i < width; ++i) inferred.emplace_back(expected_rows);
  } else {
    for (const Field& f : options.schema->fields()) {
      columns.emplace_back(f.type);
    }
  }

  size_t rows = 0;
  while (!tokenizer.done()) {
    if (options.exec != nullptr && rows % kExecPollRows == 0 &&
        options.exec->Expired()) {
      return options.exec->ExpiryStatus();
    }
    MUVE_RETURN_IF_ERROR(tokenizer.Next(&fields));
    if (fields.size() == 1 && common::Trim(fields[0]).empty()) continue;
    if (fields.size() != width) {
      return common::Status::ParseError(
          "CSV record has " + std::to_string(fields.size()) +
          " fields, header has " + std::to_string(width));
    }
    ++rows;
    if (!deferred.ok()) continue;
    if (infer) {
      for (size_t i = 0; i < width; ++i) inferred[i].Add(fields[i]);
      continue;
    }
    for (size_t i = 0; i < width; ++i) {
      if (!AppendCell(fields[i], &columns[i])) {
        deferred = common::Status::ParseError(
            "cannot parse '" + std::string(fields[i]) + "' as " +
            ValueTypeName(columns[i].type()));
        break;
      }
    }
  }
  MUVE_RETURN_IF_ERROR(deferred);

  Schema schema;
  if (!infer) {
    schema = *options.schema;
  } else {
    for (size_t i = 0; i < width; ++i) {
      const std::string name(common::Trim(header[i]));
      if (name.empty()) {
        return common::Status::ParseError("empty CSV header name");
      }
      MUVE_RETURN_IF_ERROR(schema.AddField(Field(name, inferred[i].type())));
    }
    for (const InferredColumn& column : inferred) {
      MUVE_ASSIGN_OR_RETURN(Column built, column.Build(options.exec));
      columns.push_back(std::move(built));
    }
  }
  Table table = Table::FromColumns(std::move(schema), std::move(columns));
  if (stats != nullptr) {
    stats->rows = static_cast<int64_t>(table.num_rows());
    stats->bytes = static_cast<int64_t>(text.size());
    stats->parse_ms = timer.ElapsedMillis();
  }
  return table;
}

common::Result<Table> ReadCsvFile(const std::string& path,
                                  const CsvOptions& options,
                                  CsvLoadStats* stats) {
  common::Stopwatch timer;
  // Injected read failure: model a disk that disappears under us.  The
  // caller sees the same IoError a real ENXIO would produce, so the whole
  // Result<> propagation chain (CLI exit code included) is testable
  // without actual hardware faults.
  if (MUVE_FAILPOINT("csv.read") == common::FailpointAction::kError) {
    return common::Status::IoError("failpoint csv.read: injected read error");
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return common::Status::IoError("cannot open file: " + path);
  }
  // Pre-size the buffer from the file length: one allocation + one read
  // instead of stream-buffer chunk growth.
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return common::Status::IoError("cannot stat file: " + path);
  }
  // Size guard BEFORE the allocation: a >2 GiB (by default) file must not
  // drag the process through an allocation of that size just to be
  // rejected, and std::streamoff → size_t narrowing below stays safe.
  if (static_cast<uint64_t>(size) > options.max_bytes) {
    return common::Status::IoError(
        "file " + path + " is " + std::to_string(size) +
        " bytes, exceeds max_bytes=" + std::to_string(options.max_bytes));
  }
  in.seekg(0, std::ios::beg);
  std::string text(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(text.data(), size)) {
    return common::Status::IoError("read failed: " + path);
  }
  const double io_ms = timer.ElapsedMillis();
  MUVE_ASSIGN_OR_RETURN(Table table, ReadCsvString(text, options, stats));
  if (stats != nullptr) stats->parse_ms += io_ms;
  return table;
}

namespace {

std::string EscapeCsvField(const std::string& field, char delimiter) {
  const bool needs_quotes =
      field.find(delimiter) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

std::string WriteCsvString(const Table& table, char delimiter) {
  std::ostringstream out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out << delimiter;
    out << EscapeCsvField(schema.field(c).name, delimiter);
  }
  out << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) out << delimiter;
      out << EscapeCsvField(table.At(r, c).ToString(), delimiter);
    }
    out << "\n";
  }
  return out.str();
}

common::Status WriteCsvFile(const Table& table, const std::string& path,
                            char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return common::Status::IoError("cannot open file for write: " + path);
  }
  out << WriteCsvString(table, delimiter);
  if (!out) {
    return common::Status::IoError("write failed: " + path);
  }
  return common::Status::OK();
}

}  // namespace muve::storage
