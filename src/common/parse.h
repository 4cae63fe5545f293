// Strict, locale-independent numeric parsing.
//
// Every place the system decodes an untrusted numeric token — CLI flag
// values, CSV cells, and `muved` protocol fields — goes through this one
// utility, so the acceptance rules are identical everywhere:
//
//   * The WHOLE token must parse: trailing junk is an error, never a
//     silent truncation ("--k=abc" and "12x" both fail, they do not
//     become 0 or 12).
//   * Out-of-range magnitudes are errors, never wrapped, saturated, or
//     undefined behavior ("99999999999999999999" fails as int64;
//     "1e400" fails as double).
//   * Parsing never consults the process locale: "1.5" means 1.5 under
//     a de_DE-style decimal-comma locale too, and "1,5" is always an
//     error, not a locale-dependent 1.5.
//   * Doubles accept decimal and scientific notation with an optional
//     leading sign ("1", "-2.5", ".5", "7.", "1e30", "+3E-2").
//     `inf`/`nan`/hex-float spellings are REJECTED by policy: none of
//     them is a meaningful histogram input, and accepting them would
//     re-open locale- and toolchain-dependent corners.
//
// Built on std::from_chars; toolchains without floating-point from_chars
// fall back to a classic-locale istringstream behind the same validator,
// so the accepted grammar does not change.

#ifndef MUVE_COMMON_PARSE_H_
#define MUVE_COMMON_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace muve::common {

// Parses `text` as a base-10 int64.  Accepts an optional leading '+' or
// '-'; rejects empty input, whitespace, trailing junk, and values outside
// [INT64_MIN, INT64_MAX].
Result<int64_t> ParseInt64Strict(std::string_view text);

// Parses `text` as a finite double, locale-independently.  Accepts
// decimal and scientific notation with an optional leading sign; rejects
// empty input, whitespace, trailing junk, inf/nan/hex spellings, and
// magnitudes that overflow double (underflow-to-subnormal-or-zero is
// rejected too: a cell whose magnitude can't survive the type is treated
// as malformed, not silently flushed).
Result<double> ParseDoubleStrict(std::string_view text);

// Allocation-free forms of the two parsers above for per-cell loops (the
// CSV reader): the same grammar, true on success, `*out` untouched and
// no diagnostic built on failure.
bool TryParseInt64(std::string_view text, int64_t* out);
bool TryParseDouble(std::string_view text, double* out);

// Flag-oriented wrappers: same strictness, plus an inclusive range check,
// with errors that name the flag —
//   "--k: expected an integer in [1, 1000000], got 'abc'".
// `flag` is whatever the caller wants the diagnostic to lead with (a CLI
// flag name, a protocol field name, a CSV column).
Result<int64_t> ParseFlagInt64(std::string_view flag, std::string_view text,
                               int64_t min_value, int64_t max_value);
Result<double> ParseFlagDouble(std::string_view flag, std::string_view text,
                               double min_value, double max_value);

}  // namespace muve::common

#endif  // MUVE_COMMON_PARSE_H_
