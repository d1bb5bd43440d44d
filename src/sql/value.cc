#include "sql/value.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace soda {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kDate:
      return "date";
  }
  return "unknown";
}

double Value::NumericValue() const {
  switch (type()) {
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kInt64:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return 0.0;
  }
}

int Value::Compare(const Value& other) const {
  const bool self_null = is_null();
  const bool other_null = other.is_null();
  if (self_null || other_null) {
    if (self_null && other_null) return 0;
    return self_null ? -1 : 1;
  }
  if (IsNumeric() && other.IsNumeric()) {
    // Exact path for int/int to avoid double rounding at 2^53.
    if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = NumericValue(), b = other.NumericValue();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kDate: {
      Date a = AsDate(), b = other.AsDate();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numeric handled above
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kBool:
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash the numeric value so 3 == 3.0 implies equal hashes.
      double d = NumericValue();
      // Range check first: casting a non-finite or out-of-range double
      // to int64_t is undefined.
      if (std::isfinite(d) && std::abs(d) < 9.0e15 &&
          d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d)) ^ 0x51ed2701u;
      }
      return std::hash<double>{}(d) ^ 0x51ed2701u;
    }
    case ValueType::kString:
      return std::hash<std::string>{}(AsString()) ^ 0x2545f491u;
    case ValueType::kDate:
      return std::hash<int32_t>{}(AsDate().days_since_epoch()) ^ 0x8f1bbcdcu;
  }
  return 0;
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return "'" + ReplaceAll(AsString(), "'", "''") + "'";
    case ValueType::kDate:
      return "DATE '" + AsDate().ToString() + "'";
  }
  return "NULL";
}

std::string Value::ToDisplayString() const {
  switch (type()) {
    case ValueType::kString:
      return AsString();
    case ValueType::kDate:
      return AsDate().ToString();
    default:
      return ToSqlLiteral();
  }
}

}  // namespace soda
