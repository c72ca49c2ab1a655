#ifndef SES_EVENT_VALUE_H_
#define SES_EVENT_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/logging.h"
#include "common/result.h"

namespace ses {

/// Type of a non-temporal event attribute.
enum class ValueType {
  kInt64,
  kDouble,
  kString,
};

std::string_view ValueTypeToString(ValueType type);
Result<ValueType> ValueTypeFromString(std::string_view name);

/// A typed attribute value. Values of numeric types (int64, double) are
/// mutually comparable; strings are only comparable with strings. This
/// mirrors the condition language of the paper (§3.2), where conditions
/// compare attribute values with constants or with other attribute values.
class Value {
 public:
  /// Default-constructs an int64 zero (needed for container resizing).
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kInt64;
      case 1:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_int64() const { return data_.index() == 0; }
  bool is_double() const { return data_.index() == 1; }
  bool is_string() const { return data_.index() == 2; }

  /// Accessors require the matching type.
  int64_t int64() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& string() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 promoted to double. Requires a numeric type.
  double AsNumber() const {
    return is_int64() ? static_cast<double>(int64()) : as_double();
  }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// True if values of the two types can be ordered against each other
/// (numeric vs numeric, or string vs string).
bool TypesComparable(ValueType a, ValueType b);

/// Typed-dispatch three-way comparison against a Value constant. These
/// three overloads are THE definition of comparison semantics — Compare()
/// below, Value::operator==, and the vectorized pre-filter kernels
/// (core/filter.h) are all built on them, so NaN and mixed-numeric
/// behavior lives in exactly one place:
///   * int64 vs int64 compares exactly (no double rounding);
///   * any other numeric pair compares as doubles via
///     `x < y ? -1 : (x > y ? 1 : 0)`, so a NaN operand yields 0
///     ("neither less nor greater"), making kEq hold and kLt/kGt fail;
///   * strings compare lexicographically (sign of compare()).
/// The constant's type must be comparable with the lhs (checked).
inline int CompareTyped(int64_t lhs, const Value& constant) {
  SES_CHECK(!constant.is_string())
      << "incomparable value types: INT vs STRING";
  if (constant.is_int64()) {
    int64_t y = constant.int64();
    return lhs < y ? -1 : (lhs > y ? 1 : 0);
  }
  double x = static_cast<double>(lhs), y = constant.as_double();
  return x < y ? -1 : (x > y ? 1 : 0);
}

inline int CompareTyped(double lhs, const Value& constant) {
  SES_CHECK(!constant.is_string())
      << "incomparable value types: DOUBLE vs STRING";
  double y = constant.AsNumber();
  return lhs < y ? -1 : (lhs > y ? 1 : 0);
}

inline int CompareTyped(std::string_view lhs, const Value& constant) {
  SES_CHECK(constant.is_string())
      << "incomparable value types: STRING vs "
      << (constant.is_int64() ? "INT" : "DOUBLE");
  int cmp = lhs.compare(constant.string());
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

/// Three-way comparison: negative if a<b, 0 if equal, positive if a>b.
/// The types must be comparable (checked; guaranteed by pattern validation).
/// Dispatches to the CompareTyped overloads above.
int Compare(const Value& a, const Value& b);

/// Strict weak ordering by Compare(), for maps keyed by values of one
/// comparable type (the partition-key tables of core/ and exec/).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return Compare(a, b) < 0;
  }
};

}  // namespace ses

#endif  // SES_EVENT_VALUE_H_
