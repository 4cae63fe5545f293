// A dynamically-typed cell value for the columnar engine.
//
// The engine is strongly typed at the column level (each column stores a
// contiguous vector of its native type); `Value` is the boundary type used
// when rows cross module boundaries: SQL literals, predicate constants,
// group keys, and aggregate results.

#ifndef MUVE_STORAGE_VALUE_H_
#define MUVE_STORAGE_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>

#include "common/status.h"

namespace muve::storage {

enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

// True when `d` is integral and inside int64's range, so
// static_cast<int64_t>(d) is defined and exact: the rule by which an
// int64 column accepts a double.  The bounds are exact doubles: -2^63 is
// inclusive, 2^63 (not an int64) exclusive.
inline bool FitsInt64Exactly(double d) {
  constexpr double kLower = -9223372036854775808.0;  // -2^63
  constexpr double kUpper = 9223372036854775808.0;   // 2^63
  return d >= kLower && d < kUpper && d == std::trunc(d);
}

// Null, 64-bit integer, double, or string.  Value is ordered and hashable;
// numeric values of different types compare by numeric value (1 == 1.0),
// which is what SQL comparison semantics require.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  // Typed accessors; aborts on type mismatch (programming error).
  int64_t AsInt64() const;
  double AsDoubleExact() const;
  const std::string& AsString() const;

  // Numeric coercion: int64 and double convert; null and string fail.
  common::Result<double> ToDouble() const;

  // Renders for CSV output and debugging.  Null renders as the empty string.
  std::string ToString() const;

  // SQL-style equality: numeric cross-type compares by value; null equals
  // only null (three-valued logic is handled by the predicate layer).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order used for MIN/MAX and sorting: null < numerics < strings.
  bool operator<(const Value& other) const;

  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_VALUE_H_
