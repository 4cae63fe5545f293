#include "server/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/parse.h"

namespace muve::server {

namespace {

using common::Result;
using common::Status;

constexpr int kMaxDepth = 64;

void AbortKind() {
  // Kind-mismatched access is a programming error, same contract as
  // Result::value() on an error.
  std::abort();
}

}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::bool_value() const {
  if (kind_ != Kind::kBool) AbortKind();
  return bool_;
}

int64_t JsonValue::int_value() const {
  if (kind_ != Kind::kInt) AbortKind();
  return int_;
}

double JsonValue::number_value() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  AbortKind();
  return 0.0;
}

const std::string& JsonValue::string_value() const {
  if (kind_ != Kind::kString) AbortKind();
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  if (kind_ != Kind::kArray) AbortKind();
  return array_;
}

std::vector<JsonValue>& JsonValue::array() {
  if (kind_ != Kind::kArray) AbortKind();
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) AbortKind();
  return members_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::Set(std::string_view key, JsonValue value) {
  if (kind_ != Kind::kObject) AbortKind();
  for (Member& m : members_) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

void JsonValue::Append(JsonValue value) {
  if (kind_ != Kind::kArray) AbortKind();
  array_.push_back(std::move(value));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void WriteEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  size_t run = 0;  // start of the pending run that needs no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(s, run, s.size() - run);
  out->push_back('"');
}

void WriteDouble(double d, std::string* out) {
  // inf/nan have no RFC 8259 spelling — to_chars/%.17g would emit
  // "inf"/"nan" and the frame would be unparseable by our own strict
  // parser.  Serialize them as null: deterministic, valid JSON, and the
  // absence of a number is exactly what a non-finite stat means.
  if (!std::isfinite(d)) {
    *out += "null";
    return;
  }
  // Shortest round-trip form: deterministic, exact, locale-free.  A
  // to_chars form with no '.', 'e' or 'E' (e.g. "42") would re-parse as
  // an int64 — append ".0" so doubles stay doubles across a round trip.
  char buf[40];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf) - 2, d);
  size_t len = ec == std::errc() ? static_cast<size_t>(ptr - buf) : 0;
#else
  size_t len = 0;
#endif
  if (len == 0) {
    len = static_cast<size_t>(
        std::snprintf(buf, sizeof(buf) - 2, "%.17g", d));
  }
  bool plain_integer = true;
  for (size_t i = 0; i < len; ++i) {
    if (buf[i] != '-' && !(buf[i] >= '0' && buf[i] <= '9')) {
      plain_integer = false;
      break;
    }
  }
  out->append(buf, len);
  if (plain_integer) *out += ".0";
}

void WriteValue(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kInt:
      *out += std::to_string(v.int_value());
      break;
    case JsonValue::Kind::kDouble:
      WriteDouble(v.number_value(), out);
      break;
    case JsonValue::Kind::kString:
      WriteEscaped(v.string_value(), out);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& e : v.array()) {
        if (!first) out->push_back(',');
        first = false;
        WriteValue(e, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        WriteEscaped(key, out);
        out->push_back(':');
        WriteValue(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string JsonValue::Write() const {
  std::string out;
  WriteValue(*this, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    MUVE_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing bytes after JSON value");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at byte " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        MUVE_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      MUVE_RETURN_IF_ERROR(ParseString(&key));
      if (out->Find(key) != nullptr) {
        return Fail("duplicate object key \"" + key + "\"");
      }
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      MUVE_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      JsonValue value;
      MUVE_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
      value = value * 16 + digit;
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      // Copy the run up to the next quote, backslash or control byte in
      // one append.
      const size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c < 0x20 || c == '"' || c == '\\') break;
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) break;
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("unescaped control character in string");
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          MUVE_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!ConsumeLiteral("\\u")) return Fail("unpaired surrogate");
            uint32_t low = 0;
            MUVE_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid surrogate pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    // RFC 8259 is stricter than the shared token parser: the integer
    // part must start with a digit ("+1" and ".5" are invalid JSON) and
    // a leading zero cannot be followed by more digits ("01").
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("invalid value");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Fail("leading zero in number");
    }
    // Scan exactly the RFC 8259 grammar — int [frac] [exp] — instead of
    // greedily grabbing number-ish bytes: the shared token parser below
    // tolerates trailing-dot forms ("1.", "1.e5") that are not JSON, so
    // the frac/exp digit requirements must be enforced here.
    auto digit = [this] {
      return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
    };
    bool is_double = false;
    while (digit()) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (!digit()) return Fail("expected digit after '.' in number");
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit()) return Fail("expected digit in exponent");
      while (digit()) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    // Value decode goes through the shared strict parser, so range
    // handling (int64 overflow, double overflow/underflow) matches CLI
    // flags and CSV cells exactly.
    if (!is_double) {
      auto parsed = common::ParseInt64Strict(token);
      if (!parsed.ok()) {
        return Status::ParseError("JSON: " + parsed.status().message());
      }
      *out = JsonValue::Int(*parsed);
      return Status::OK();
    }
    auto parsed = common::ParseDoubleStrict(token);
    if (!parsed.ok()) {
      return Status::ParseError("JSON: " + parsed.status().message());
    }
    *out = JsonValue::Double(*parsed);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

common::Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace muve::server
