#include "query/condition.h"

#include "common/logging.h"
#include "common/strings.h"

namespace ses {

std::string_view ComparisonOpToString(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

bool ApplyComparison(ComparisonOp op, int cmp) {
  switch (op) {
    case ComparisonOp::kEq:
      return cmp == 0;
    case ComparisonOp::kNe:
      return cmp != 0;
    case ComparisonOp::kLt:
      return cmp < 0;
    case ComparisonOp::kLe:
      return cmp <= 0;
    case ComparisonOp::kGt:
      return cmp > 0;
    case ComparisonOp::kGe:
      return cmp >= 0;
  }
  return false;
}

ComparisonOp MirrorComparison(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kEq;
    case ComparisonOp::kNe:
      return ComparisonOp::kNe;
    case ComparisonOp::kLt:
      return ComparisonOp::kGt;
    case ComparisonOp::kLe:
      return ComparisonOp::kGe;
    case ComparisonOp::kGt:
      return ComparisonOp::kLt;
    case ComparisonOp::kGe:
      return ComparisonOp::kLe;
  }
  return op;
}

bool Condition::References(VariableId v) const {
  if (lhs_.variable == v) return true;
  if (!is_constant_condition() && rhs_ref().variable == v) return true;
  return false;
}

std::optional<VariableId> Condition::OtherVariable(VariableId v) const {
  if (is_constant_condition()) return std::nullopt;
  if (lhs_.variable == v) return rhs_ref().variable;
  if (rhs_ref().variable == v) return lhs_.variable;
  return std::nullopt;
}

namespace {

/// Three-way comparison of the referenced attribute of `e` with `rhs`, in
/// place: no attribute value is copied. Timestamps compare as int64.
int CompareRef(const AttributeRef& ref, const Event& e, const Value& rhs) {
  if (ref.is_timestamp()) {
    return CompareTyped(static_cast<int64_t>(e.timestamp()), rhs);
  }
  return Compare(e.value(ref.attribute), rhs);
}

}  // namespace

bool Condition::EvaluateConstant(const Event& e) const {
  SES_CHECK(is_constant_condition());
  return ApplyComparison(op_, CompareRef(lhs_, e, constant()));
}

bool Condition::EvaluateVariable(const Event& lhs_event,
                                 const Event& rhs_event) const {
  SES_CHECK(!is_constant_condition());
  // Timestamp-vs-timestamp comparisons skip Value construction; this is the
  // hot path for the synthesized inter-set ordering constraints (§4.2.2).
  if (lhs_.is_timestamp() && rhs_ref().is_timestamp() &&
      rhs_offset_.is_int64()) {
    Timestamp a = lhs_event.timestamp();
    Timestamp b = rhs_event.timestamp() + rhs_offset_.int64();
    return ApplyComparison(op_, a < b ? -1 : (a > b ? 1 : 0));
  }
  // A timestamp rhs becomes an int64 Value (no allocation); an attribute
  // rhs is compared where it lies.
  const AttributeRef& rhs = rhs_ref();
  const Value rhs_time(static_cast<int64_t>(rhs_event.timestamp()));
  const Value& rhs_value =
      rhs.is_timestamp() ? rhs_time : rhs_event.value(rhs.attribute);
  if (!has_offset()) {
    return ApplyComparison(op_, CompareRef(lhs_, lhs_event, rhs_value));
  }
  // Validation guarantees numeric operands. Integer arithmetic is kept
  // exact; any double promotes to double.
  const Value shifted =
      rhs_value.is_int64() && rhs_offset_.is_int64()
          ? Value(rhs_value.int64() + rhs_offset_.int64())
          : Value(rhs_value.AsNumber() + rhs_offset_.AsNumber());
  return ApplyComparison(op_, CompareRef(lhs_, lhs_event, shifted));
}

std::string Condition::ToString() const {
  std::string out = strings::Format("v%d.#%d %s", lhs_.variable,
                                    lhs_.attribute,
                                    std::string(ComparisonOpToString(op_)).c_str());
  if (is_constant_condition()) {
    out += ' ';
    out += constant().ToString();
  } else {
    out += strings::Format(" v%d.#%d", rhs_ref().variable,
                           rhs_ref().attribute);
  }
  return out;
}

}  // namespace ses
