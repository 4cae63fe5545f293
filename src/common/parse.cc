#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <locale>
#include <sstream>

namespace muve::common {

namespace {

std::string Quoted(std::string_view text) {
  std::string out = "'";
  // Bound the echoed token so a pathological input can't balloon the
  // diagnostic (and with it, a protocol error frame).
  constexpr size_t kMaxEcho = 64;
  if (text.size() <= kMaxEcho) {
    out.append(text);
  } else {
    out.append(text.substr(0, kMaxEcho));
    out += "...";
  }
  out += "'";
  return out;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Validates the exact grammar both int and double parsing accept:
//   sign? ( digits ('.' digits?)? | '.' digits ) ( [eE] sign? digits )?
// The validator is what keeps the from_chars and fallback paths
// identical: strtod-family fallbacks would otherwise accept hex floats,
// "inf", "nan", and locale decimal points that from_chars never does.
bool ValidDoubleToken(std::string_view text) {
  size_t i = 0;
  const size_t n = text.size();
  if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
  size_t int_digits = 0;
  while (i < n && IsDigit(text[i])) ++i, ++int_digits;
  size_t frac_digits = 0;
  if (i < n && text[i] == '.') {
    ++i;
    while (i < n && IsDigit(text[i])) ++i, ++frac_digits;
  }
  if (int_digits + frac_digits == 0) return false;
  if (i < n && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
    size_t exp_digits = 0;
    while (i < n && IsDigit(text[i])) ++i, ++exp_digits;
    if (exp_digits == 0) return false;
  }
  return i == n;
}

// Outcome of one parse, so the allocation-free Try* forms and the
// Strict forms share a single implementation of the grammar.
enum class Parsed { kOk, kEmpty, kMalformed, kOutOfRange };

Parsed ParseInt64Token(std::string_view text, int64_t* out) {
  if (text.empty()) return Parsed::kEmpty;
  // from_chars rejects a leading '+'; accept it here so "+5" parses the
  // way every other numeric frontend treats it.
  std::string_view body = text;
  if (body.front() == '+') {
    body.remove_prefix(1);
    if (body.empty() || body.front() == '-' || body.front() == '+') {
      return Parsed::kMalformed;
    }
  }
  const char* end = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(body.data(), end, *out, 10);
  if (ec == std::errc::result_out_of_range) return Parsed::kOutOfRange;
  if (ec != std::errc() || ptr != end) return Parsed::kMalformed;
  return Parsed::kOk;
}

Parsed ParseDoubleToken(std::string_view text, double* out) {
  if (text.empty()) return Parsed::kEmpty;
  if (!ValidDoubleToken(text)) return Parsed::kMalformed;
  std::string_view body = text;
  if (body.front() == '+') body.remove_prefix(1);  // from_chars rejects '+'
  double value = 0.0;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  const char* end = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(body.data(), end, value);
  if (ec == std::errc::result_out_of_range) return Parsed::kOutOfRange;
  if (ec != std::errc() || ptr != end) return Parsed::kMalformed;
#else
  // Fallback: classic-locale stream extraction.  The validator above has
  // already pinned the grammar, so this only converts digits.
  std::istringstream in{std::string(body)};
  in.imbue(std::locale::classic());
  in >> value;
  if (!in || !in.eof()) return Parsed::kMalformed;
#endif
  if (!std::isfinite(value)) return Parsed::kOutOfRange;
  *out = value;
  return Parsed::kOk;
}

}  // namespace

bool TryParseInt64(std::string_view text, int64_t* out) {
  int64_t value = 0;
  if (ParseInt64Token(text, &value) != Parsed::kOk) return false;
  *out = value;
  return true;
}

bool TryParseDouble(std::string_view text, double* out) {
  return ParseDoubleToken(text, out) == Parsed::kOk;
}

Result<int64_t> ParseInt64Strict(std::string_view text) {
  int64_t value = 0;
  switch (ParseInt64Token(text, &value)) {
    case Parsed::kOk:
      return value;
    case Parsed::kEmpty:
      return Status::InvalidArgument("empty integer token");
    case Parsed::kOutOfRange:
      return Status::InvalidArgument("integer " + Quoted(text) +
                                     " is out of int64 range");
    case Parsed::kMalformed:
      break;
  }
  return Status::InvalidArgument("cannot parse " + Quoted(text) +
                                 " as an integer");
}

Result<double> ParseDoubleStrict(std::string_view text) {
  double value = 0.0;
  switch (ParseDoubleToken(text, &value)) {
    case Parsed::kOk:
      return value;
    case Parsed::kEmpty:
      return Status::InvalidArgument("empty numeric token");
    case Parsed::kOutOfRange:
      return Status::InvalidArgument("number " + Quoted(text) +
                                     " is out of double range");
    case Parsed::kMalformed:
      break;
  }
  return Status::InvalidArgument("cannot parse " + Quoted(text) +
                                 " as a number");
}

Result<int64_t> ParseFlagInt64(std::string_view flag, std::string_view text,
                               int64_t min_value, int64_t max_value) {
  auto parsed = ParseInt64Strict(text);
  if (!parsed.ok() || *parsed < min_value || *parsed > max_value) {
    return Status::InvalidArgument(
        std::string(flag) + ": expected an integer in [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) +
        "], got " + Quoted(text));
  }
  return *parsed;
}

Result<double> ParseFlagDouble(std::string_view flag, std::string_view text,
                               double min_value, double max_value) {
  auto parsed = ParseDoubleStrict(text);
  if (!parsed.ok() || *parsed < min_value || *parsed > max_value) {
    std::ostringstream range;
    range.imbue(std::locale::classic());
    range << min_value << ", " << max_value;
    return Status::InvalidArgument(std::string(flag) +
                                   ": expected a number in [" + range.str() +
                                   "], got " + Quoted(text));
  }
  return *parsed;
}

}  // namespace muve::common
