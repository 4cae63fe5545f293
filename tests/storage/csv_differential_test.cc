// Differential fuzz: the columnar storage::ReadCsvString against the
// record-at-a-time reader it replaced (tests/csv_oracle.h).
//
// Random texts mix quoting ("" escapes, delimiters and newlines inside
// quotes, quoted runs mid-field), \n / \r\n / lone \r endings, blank and
// whitespace-only lines, blank cells, int64 boundaries, integral doubles,
// inf / nan / hex spellings, ragged rows, unterminated quotes and header
// faults, read both with type inference and under an explicit schema.
// Every case must give the same table — schema, cells bit for bit, null
// masks, chunk dictionaries — or the same error code and message.
// MUVE_FUZZ_SEED reseeds the run (tests/fuzz_util.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "csv_oracle.h"
#include "fuzz_util.h"
#include "storage/csv.h"
#include "table_equality.h"

namespace muve::storage {
namespace {

using testutil::FuzzSeed;
using testutil::FuzzTrace;

// What a column's cells mostly look like, so inference lands on every
// type instead of almost always on string.
enum class Flavor { kInt, kDouble, kString, kAny };

constexpr const char* kIntCells[] = {
    "0",  "-0",   "+5",  "007", "42", "-17", "9223372036854775807",
    "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "+-3", "1_000"};
constexpr const char* kDoubleCells[] = {
    "3.0",     "9e18",    "-9e18",  "9.3e18", "1e30",   "1.5",
    "-2.25",   ".5",      "7.",     "1e-400", "1e400",  "+3E-2",
    "-0.0",    "9223372036854775808.0",     "-9.223372036854775808e18",
    "4.9e-324", "1e308",  "0.1",    "12.000", "-1e-5"};
constexpr const char* kOddCells[] = {
    "inf", "-inf", "nan", "NaN", "0x10", "abc", "north", "a b", "1 2",
    "--1", "e5",   "1e",  ".",   "+",    "\xc3\xa9t\xc3\xa9"};

template <size_t N>
std::string Pick(common::Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.UniformInt(0, static_cast<int64_t>(N) - 1)];
}

bool Chance(common::Rng& rng, int percent) {
  return rng.UniformInt(0, 99) < percent;
}

// A cell's logical text, before quoting and padding.
std::string CellText(common::Rng& rng, Flavor flavor, char delimiter) {
  if (flavor == Flavor::kAny) {
    flavor = static_cast<Flavor>(rng.UniformInt(0, 2));
  }
  switch (flavor) {
    case Flavor::kInt:
      if (Chance(rng, 97)) {
        return Chance(rng, 50)
                   ? std::to_string(rng.UniformInt(-1000, 1000))
                   : std::to_string(static_cast<int64_t>(rng.NextUint64()));
      }
      return Chance(rng, 50) ? Pick(rng, kIntCells) : Pick(rng, kDoubleCells);
    case Flavor::kDouble:
      if (Chance(rng, 95)) {
        if (Chance(rng, 30)) return std::to_string(rng.UniformInt(-50, 50));
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g",
                      static_cast<int>(rng.UniformInt(1, 17)),
                      rng.Uniform(-1e6, 1e6));
        return buf;
      }
      return Chance(rng, 70) ? Pick(rng, kDoubleCells) : Pick(rng, kOddCells);
    case Flavor::kString:
    case Flavor::kAny: {
      if (Chance(rng, 40)) return Pick(rng, kOddCells);
      // Text that needs quoting: delimiters, quotes, line breaks.
      std::string s;
      const int64_t len = rng.UniformInt(0, 6);
      for (int64_t i = 0; i < len; ++i) {
        const int64_t k = rng.UniformInt(0, 11);
        if (k == 0) s += delimiter;
        else if (k == 1) s += '"';
        else if (k == 2) s += '\n';
        else if (k == 3) s += '\r';
        else if (k == 4) s += ' ';
        else s += static_cast<char>('a' + rng.UniformInt(0, 25));
      }
      return s;
    }
  }
  return "";
}

bool NeedsQuotes(const std::string& s, char delimiter) {
  for (const char c : s) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

// `text` as it appears in the file: quoted when it must be (and now and
// then when it need not be), padded with whitespace now and then, or
// quoted only in part (a"b"c reads back as abc).
std::string Encode(common::Rng& rng, const std::string& text,
                   char delimiter) {
  std::string out;
  if (NeedsQuotes(text, delimiter) || Chance(rng, 10)) {
    out = Quote(text);
  } else if (text.size() >= 2 && Chance(rng, 5)) {
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
    out = text.substr(0, cut) + Quote(text.substr(cut, 1)) +
          text.substr(cut + 1);
  } else {
    out = text;
  }
  if (Chance(rng, 8)) out = " " + out;
  if (Chance(rng, 8)) out += Chance(rng, 50) ? " " : "\t";
  return out;
}

std::string Cell(common::Rng& rng, Flavor flavor, char delimiter) {
  if (Chance(rng, 8)) {
    const int64_t k = rng.UniformInt(0, 3);
    return k == 0 ? "" : k == 1 ? "  " : k == 2 ? "\"\"" : "\" \"";
  }
  return Encode(rng, CellText(rng, flavor, delimiter), delimiter);
}

std::string LineEnd(common::Rng& rng) {
  const int64_t k = rng.UniformInt(0, 9);
  return k < 6 ? "\n" : k < 9 ? "\r\n" : "\r";
}

struct Case {
  std::string text;
  CsvOptions options;
};

Case MakeCase(common::Rng& rng) {
  Case c;
  const int64_t d = rng.UniformInt(0, 9);
  const char delimiter = d < 7 ? ',' : d < 9 ? ';' : '\t';
  c.options.delimiter = delimiter;
  const size_t width = static_cast<size_t>(rng.UniformInt(1, 4));
  std::vector<Flavor> flavors;
  std::vector<std::string> names;
  for (size_t i = 0; i < width; ++i) {
    flavors.push_back(static_cast<Flavor>(rng.UniformInt(0, 3)));
    names.push_back(std::string(1, static_cast<char>('a' + i)));
  }
  // Header faults: an empty name, a case-insensitive duplicate.
  std::vector<std::string> header = names;
  if (Chance(rng, 3)) {
    header[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(width) - 1))] = " ";
  }
  if (width > 1 && Chance(rng, 3)) header[1] = " A";
  for (size_t i = 0; i < width; ++i) {
    if (i > 0) c.text += delimiter;
    c.text += Chance(rng, 10) ? Quote(header[i]) : header[i];
  }
  c.text += LineEnd(rng);

  const int64_t rows = Chance(rng, 5) ? 0 : rng.UniformInt(1, 40);
  const int64_t ragged = Chance(rng, 6) ? rng.UniformInt(0, rows) : -1;
  for (int64_t r = 0; r < rows; ++r) {
    if (Chance(rng, 5)) {
      const int64_t k = rng.UniformInt(0, 3);
      c.text += k == 0 ? "" : k == 1 ? "   " : k == 2 ? "\t" : "\"\"";
      c.text += LineEnd(rng);
    }
    size_t cells = width;
    if (r == ragged) cells = Chance(rng, 50) ? width + 1 : width - 1;
    if (cells == 0) cells = 2;  // a one-column row can only grow
    for (size_t i = 0; i < cells; ++i) {
      if (i > 0) c.text += delimiter;
      c.text += Cell(rng, flavors[std::min(i, width - 1)], delimiter);
    }
    if (r + 1 < rows || Chance(rng, 80)) c.text += LineEnd(rng);
  }
  if (Chance(rng, 4)) c.text += "\"never closed" + LineEnd(rng);
  if (Chance(rng, 5)) c.text += LineEnd(rng) + "  " + LineEnd(rng);

  if (Chance(rng, 50)) {
    Schema schema;
    for (size_t i = 0; i < width; ++i) {
      ValueType type = ValueType::kString;
      switch (flavors[i]) {
        case Flavor::kInt:
          type = ValueType::kInt64;
          break;
        case Flavor::kDouble:
          type = Chance(rng, 70) ? ValueType::kDouble : ValueType::kInt64;
          break;
        case Flavor::kString:
          type = ValueType::kString;
          break;
        case Flavor::kAny:
          type = static_cast<ValueType>(rng.UniformInt(0, 3));
          break;
      }
      std::string name = names[i];
      if (Chance(rng, 20)) name[0] = static_cast<char>(name[0] - 'a' + 'A');
      if (Chance(rng, 2)) name = "z" + name;
      EXPECT_TRUE(schema.AddField(Field(name, type)).ok());
    }
    if (Chance(rng, 3)) {
      EXPECT_TRUE(schema.AddField(Field("extra", ValueType::kInt64)).ok());
    }
    c.options.schema = schema;
  }
  return c;
}

// Which branch of the contract a case exercised, for the coverage check.
struct Coverage {
  int ok = 0;
  int inferred_int = 0;
  int inferred_double = 0;
  int inferred_string = 0;
  int ragged = 0;
  int unterminated = 0;
  int header = 0;
  int bad_cell = 0;

  void Count(const common::Result<Table>& want, const CsvOptions& options) {
    if (want.ok()) {
      ++ok;
      if (options.schema.has_value()) return;
      for (const Field& f : want->schema().fields()) {
        if (f.type == ValueType::kInt64) ++inferred_int;
        if (f.type == ValueType::kDouble) ++inferred_double;
        if (f.type == ValueType::kString) ++inferred_string;
      }
      return;
    }
    const std::string& m = want.status().message();
    if (m.find("fields, header has") != std::string::npos) ++ragged;
    else if (m.find("unterminated") != std::string::npos) ++unterminated;
    else if (m.find("cannot parse") != std::string::npos) ++bad_cell;
    else ++header;
  }
};

void ExpectSameResult(const std::string& text, const CsvOptions& options,
                      Coverage* coverage = nullptr) {
  const common::Result<Table> got = ReadCsvString(text, options);
  const common::Result<Table> want =
      testutil::ReadCsvStringOracle(text, options);
  if (coverage != nullptr) coverage->Count(want, options);
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << (got.ok() ? "a table" : got.status().ToString())
      << ", oracle " << (want.ok() ? "a table" : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  testutil::ExpectSameTable(*got, *want);
}

TEST(CsvDifferentialTest, RandomTextsMatchTheRecordReader) {
  constexpr int kCases = 3000;
  Coverage coverage;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t seed = FuzzSeed(static_cast<uint64_t>(i));
    SCOPED_TRACE(FuzzTrace(static_cast<uint64_t>(i), seed));
    common::Rng rng(seed);
    const Case c = MakeCase(rng);
    SCOPED_TRACE("text: " + c.text);
    ExpectSameResult(c.text, c.options, &coverage);
    if (HasFatalFailure()) return;
  }
  // The generator must keep reaching every branch of the contract, or a
  // green run would prove little.
  EXPECT_GT(coverage.ok, kCases / 5);
  EXPECT_GT(coverage.inferred_int, 0);
  EXPECT_GT(coverage.inferred_double, 0);
  EXPECT_GT(coverage.inferred_string, 0);
  EXPECT_GT(coverage.ragged, 0);
  EXPECT_GT(coverage.unterminated, 0);
  EXPECT_GT(coverage.header, 0);
  EXPECT_GT(coverage.bad_cell, 0);
}

// Fixed texts for the corners: each one pins a rule the fuzz reaches
// only by chance.
TEST(CsvDifferentialTest, FixedCornersMatchTheRecordReader) {
  const std::vector<std::string> texts = {
      "a\n",
      "a",
      "\n",
      "a,b\n1,2",
      "a,b\r1,2\r3,4",
      "a,b\n\r\n1,2\n\n",
      "a\n\"\"\n1\n",
      "a,b\n\"x\"\"y\",\"p,q\nr\"\n",
      "a\nab\"c,d\"e\n",
      "a\n\"ab\"cd\n",
      "a\n\"ab\n",
      "a,b\n1,2\n3\n\"open",
      "a,b\n1\n\"open",
      " a , b \n 1 , 2.5 \n",
      "a\n9223372036854775807\n-9223372036854775808\n",
      "a\n9223372036854775808\n",
      "a\n3.0\n9e18\n",
      "a\n-0\n1.5\n",
      "a\ninf\n",
      "a\n0x10\n",
      "a\n1e-400\n",
      "a\n\n\n",
      "a,a\n1,2\n",
      "a,\n1,2\n",
      ",b\n1,2\n\"x\n",
  };
  CsvOptions inferred;
  for (const std::string& text : texts) {
    SCOPED_TRACE("text: " + text);
    ExpectSameResult(text, inferred);
  }
  for (const ValueType type : {ValueType::kInt64, ValueType::kDouble,
                               ValueType::kString, ValueType::kNull}) {
    CsvOptions pinned;
    pinned.schema = Schema({{"a", type}});
    for (const std::string& text : texts) {
      SCOPED_TRACE("text: " + text + " as " + ValueTypeName(type));
      ExpectSameResult(text, pinned);
    }
  }
}

// Thousands of distinct values: a chunk's numeric dictionary overflows
// kMaxNumericDictSize mid-load, under inference and under a schema.
TEST(CsvDifferentialTest, HighCardinalityColumnsMatchTheRecordReader) {
  common::Rng rng(FuzzSeed(1u << 20));
  std::string text = "i,d,s\n";
  for (int r = 0; r < 6000; ++r) {
    text += std::to_string(rng.UniformInt(-100000, 100000)) + "," +
            std::to_string(rng.Uniform(-1.0, 1.0)) + ",s" +
            std::to_string(rng.UniformInt(0, 5000)) + "\n";
  }
  ExpectSameResult(text, {});
  CsvOptions pinned;
  pinned.schema = Schema({{"i", ValueType::kDouble},
                          {"d", ValueType::kDouble},
                          {"s", ValueType::kString}});
  ExpectSameResult(text, pinned);
}

}  // namespace
}  // namespace muve::storage
