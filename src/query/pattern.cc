#include "query/pattern.h"

#include <unordered_set>

#include "common/bits.h"
#include "common/logging.h"
#include "common/strings.h"

namespace ses {

namespace {

/// Resolves the type of an attribute reference under `schema`.
ValueType RefType(const AttributeRef& ref, const Schema& schema) {
  if (ref.is_timestamp()) return ValueType::kInt64;
  return schema.attribute(ref.attribute).type;
}

Status ValidateRef(const AttributeRef& ref, int num_variables,
                   const Schema& schema) {
  if (ref.variable < 0 || ref.variable >= num_variables) {
    return Status::InvalidArgument(
        strings::Format("condition references undeclared variable id %d",
                        ref.variable));
  }
  if (!ref.is_timestamp() &&
      (ref.attribute < 0 || ref.attribute >= schema.num_attributes())) {
    return Status::InvalidArgument(strings::Format(
        "condition references attribute index %d outside schema %s",
        ref.attribute, schema.ToString().c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<Pattern> Pattern::Create(std::vector<EventVariable> variables,
                                std::vector<EventSet> sets,
                                std::vector<Condition> conditions,
                                Duration window, Schema schema) {
  if (sets.empty()) {
    return Status::InvalidArgument("a SES pattern needs at least one set");
  }
  if (variables.empty()) {
    return Status::InvalidArgument("a SES pattern needs at least one variable");
  }
  if (static_cast<int>(variables.size()) > kMaxVariables) {
    return Status::InvalidArgument(strings::Format(
        "too many event variables: %zu > %d", variables.size(),
        kMaxVariables));
  }
  if (window <= 0) {
    return Status::InvalidArgument("window duration τ must be positive");
  }

  // Unique, non-empty names; consistent quantifiers; at least one
  // required variable (a pattern of only optional variables would match
  // the empty substitution).
  std::unordered_set<std::string> names;
  bool any_required = false;
  for (const EventVariable& v : variables) {
    if (v.name.empty()) {
      return Status::InvalidArgument("event variable name must not be empty");
    }
    if (!names.insert(v.name).second) {
      return Status::InvalidArgument("duplicate event variable name: " +
                                     v.name);
    }
    if (v.is_group && v.is_optional) {
      return Status::InvalidArgument(
          "variable '" + v.name +
          "' cannot be both a group and an optional variable");
    }
    any_required |= v.is_required();
  }
  if (!any_required) {
    return Status::InvalidArgument(
        "a SES pattern needs at least one required (non-optional) variable");
  }

  // Set membership must partition the variables (Definition 1 requires
  // Vi ∩ Vj = ∅; a dense id space additionally requires total coverage).
  std::vector<bool> covered(variables.size(), false);
  for (int i = 0; i < static_cast<int>(sets.size()); ++i) {
    if (sets[i].empty()) {
      return Status::InvalidArgument(
          strings::Format("event set pattern V%d is empty", i + 1));
    }
    for (VariableId v : sets[i]) {
      if (v < 0 || v >= static_cast<int>(variables.size())) {
        return Status::InvalidArgument(
            strings::Format("set V%d references unknown variable id %d",
                            i + 1, v));
      }
      if (covered[v]) {
        return Status::InvalidArgument(strings::Format(
            "variable '%s' appears in more than one event set pattern",
            variables[v].name.c_str()));
      }
      covered[v] = true;
      if (variables[v].set_index != i) {
        return Status::InvalidArgument(strings::Format(
            "variable '%s' declares set index %d but appears in set %d",
            variables[v].name.c_str(), variables[v].set_index, i));
      }
    }
  }
  for (size_t v = 0; v < variables.size(); ++v) {
    if (!covered[v]) {
      return Status::InvalidArgument(strings::Format(
          "variable '%s' is not a member of any event set pattern",
          variables[v].name.c_str()));
    }
  }
  // The automaton's size, from the shape alone: refuse it before anything
  // is built. Σ|Vi| ≤ kMaxVariables = 63, so the sum fits in 64 bits.
  uint64_t states = 0;
  for (const EventSet& set : sets) states += uint64_t{1} << set.size();
  if (states > static_cast<uint64_t>(kMaxAutomatonStates)) {
    return Status::InvalidArgument(strings::Format(
        "the pattern's automaton needs %llu states (the sum of 2^|Vi| over "
        "its event set patterns), more than the limit of %lld",
        static_cast<unsigned long long>(states),
        static_cast<long long>(kMaxAutomatonStates)));
  }

  // Conditions: resolved references and comparable operand types.
  for (const Condition& c : conditions) {
    SES_RETURN_IF_ERROR(
        ValidateRef(c.lhs(), static_cast<int>(variables.size()), schema));
    ValueType lhs_type = RefType(c.lhs(), schema);
    if (c.is_constant_condition()) {
      if (!TypesComparable(lhs_type, c.constant().type())) {
        return Status::InvalidArgument(strings::Format(
            "condition compares %s attribute with %s constant",
            std::string(ValueTypeToString(lhs_type)).c_str(),
            std::string(ValueTypeToString(c.constant().type())).c_str()));
      }
    } else {
      SES_RETURN_IF_ERROR(ValidateRef(
          c.rhs_ref(), static_cast<int>(variables.size()), schema));
      ValueType rhs_type = RefType(c.rhs_ref(), schema);
      if (!TypesComparable(lhs_type, rhs_type)) {
        return Status::InvalidArgument(strings::Format(
            "condition compares %s attribute with %s attribute",
            std::string(ValueTypeToString(lhs_type)).c_str(),
            std::string(ValueTypeToString(rhs_type)).c_str()));
      }
      if (c.has_offset() &&
          (lhs_type == ValueType::kString || rhs_type == ValueType::kString ||
           c.rhs_offset().is_string())) {
        return Status::InvalidArgument(
            "offset comparisons (v.A op v'.A' + C) require numeric "
            "attributes and a numeric offset");
      }
    }
  }

  Pattern p;
  p.variables_ = std::move(variables);
  p.sets_ = std::move(sets);
  p.conditions_ = std::move(conditions);
  p.window_ = window;
  p.schema_ = std::move(schema);
  p.set_masks_.resize(p.sets_.size(), 0);
  p.required_masks_.resize(p.sets_.size(), 0);
  p.prefix_masks_.resize(p.sets_.size(), 0);
  VariableMask prefix = 0;
  for (int i = 0; i < p.num_sets(); ++i) {
    p.prefix_masks_[i] = prefix;
    for (VariableId v : p.sets_[i]) {
      p.set_masks_[i] = bits::Set(p.set_masks_[i], v);
      if (p.variables_[v].is_required()) {
        p.required_masks_[i] = bits::Set(p.required_masks_[i], v);
      }
    }
    p.required_all_mask_ |= p.required_masks_[i];
    prefix |= p.set_masks_[i];
  }
  return p;
}

Result<VariableId> Pattern::VariableByName(std::string_view name) const {
  for (int v = 0; v < num_variables(); ++v) {
    if (variables_[v].name == name) return v;
  }
  return Status::NotFound("no event variable named '" + std::string(name) +
                          "'");
}

bool Pattern::HasGroupVariables() const {
  for (const EventVariable& v : variables_) {
    if (v.is_group) return true;
  }
  return false;
}

bool Pattern::HasOptionalVariables() const {
  for (const EventVariable& v : variables_) {
    if (v.is_optional) return true;
  }
  return false;
}

int Pattern::NumGroupVariablesInSet(int i) const {
  int count = 0;
  for (VariableId v : sets_[i]) {
    if (variables_[v].is_group) ++count;
  }
  return count;
}

namespace {

/// Satisfiability of a conjunction of order constraints {x φ Ci} over a
/// dense totally ordered domain.
bool ConstraintsSatisfiable(
    const std::vector<std::pair<ComparisonOp, const Value*>>& constraints) {
  const Value* lower = nullptr;  // x > or >= lower
  bool lower_strict = false;
  const Value* upper = nullptr;  // x < or <= upper
  bool upper_strict = false;
  const Value* equal = nullptr;  // x = equal
  std::vector<const Value*> not_equal;

  for (const auto& [op, value] : constraints) {
    switch (op) {
      case ComparisonOp::kEq:
        if (equal != nullptr && Compare(*equal, *value) != 0) return false;
        equal = value;
        break;
      case ComparisonOp::kNe:
        not_equal.push_back(value);
        break;
      case ComparisonOp::kGt:
      case ComparisonOp::kGe: {
        bool strict = op == ComparisonOp::kGt;
        if (lower == nullptr || Compare(*value, *lower) > 0 ||
            (Compare(*value, *lower) == 0 && strict)) {
          lower = value;
          lower_strict = strict;
        }
        break;
      }
      case ComparisonOp::kLt:
      case ComparisonOp::kLe: {
        bool strict = op == ComparisonOp::kLt;
        if (upper == nullptr || Compare(*value, *upper) < 0 ||
            (Compare(*value, *upper) == 0 && strict)) {
          upper = value;
          upper_strict = strict;
        }
        break;
      }
    }
  }

  if (equal != nullptr) {
    if (lower != nullptr) {
      int cmp = Compare(*equal, *lower);
      if (cmp < 0 || (cmp == 0 && lower_strict)) return false;
    }
    if (upper != nullptr) {
      int cmp = Compare(*equal, *upper);
      if (cmp > 0 || (cmp == 0 && upper_strict)) return false;
    }
    for (const Value* ne : not_equal) {
      if (Compare(*equal, *ne) == 0) return false;
    }
    return true;
  }

  if (lower != nullptr && upper != nullptr) {
    int cmp = Compare(*lower, *upper);
    if (cmp > 0) return false;
    if (cmp == 0) {
      if (lower_strict || upper_strict) return false;
      // Interval is the single point {lower}; a ≠ on that point empties it.
      for (const Value* ne : not_equal) {
        if (Compare(*lower, *ne) == 0) return false;
      }
    }
  }
  // Over a dense domain a non-degenerate interval cannot be emptied by
  // finitely many ≠ points.
  return true;
}

}  // namespace

bool Pattern::AreMutuallyExclusive(VariableId a, VariableId b) const {
  if (a == b) return false;
  // For each attribute (timestamp included), collect the constant
  // constraints of both variables; the pair is exclusive iff on some
  // attribute the combined constraints are unsatisfiable (Definition 6).
  for (int attr = AttributeRef::kTimestampAttribute;
       attr < schema_.num_attributes(); ++attr) {
    std::vector<std::pair<ComparisonOp, const Value*>> combined;
    bool has_a = false;
    bool has_b = false;
    for (const Condition& c : conditions_) {
      if (!c.is_constant_condition()) continue;
      if (c.lhs().attribute != attr) continue;
      if (c.lhs().variable == a) {
        has_a = true;
        combined.emplace_back(c.op(), &c.constant());
      } else if (c.lhs().variable == b) {
        has_b = true;
        combined.emplace_back(c.op(), &c.constant());
      }
    }
    if (has_a && has_b && !ConstraintsSatisfiable(combined)) return true;
  }
  return false;
}

bool Pattern::ArePairwiseMutuallyExclusive() const {
  for (VariableId a = 0; a < num_variables(); ++a) {
    for (VariableId b = a + 1; b < num_variables(); ++b) {
      if (!AreMutuallyExclusive(a, b)) return false;
    }
  }
  return true;
}

std::string Pattern::ToString() const {
  std::string out = "(<";
  for (int i = 0; i < num_sets(); ++i) {
    if (i > 0) out += ", ";
    out += "{";
    for (size_t j = 0; j < sets_[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += variables_[sets_[i][j]].ToString();
    }
    out += "}";
  }
  out += strings::Format(">, Theta(%zu), %s)", conditions_.size(),
                         FormatDuration(window_).c_str());
  return out;
}

std::string Pattern::ConditionToString(const Condition& condition) const {
  auto ref_to_string = [this](const AttributeRef& ref) {
    std::string attr = ref.is_timestamp()
                           ? "T"
                           : schema_.attribute(ref.attribute).name;
    return variables_[ref.variable].ToString() + "." + attr;
  };
  std::string out = ref_to_string(condition.lhs());
  out += " ";
  out += ComparisonOpToString(condition.op());
  out += " ";
  if (condition.is_constant_condition()) {
    if (condition.constant().is_string()) {
      out += '\'';
      out += condition.constant().ToString();
      out += '\'';
    } else {
      out += condition.constant().ToString();
    }
  } else {
    out += ref_to_string(condition.rhs_ref());
    if (condition.has_offset()) {
      double numeric = condition.rhs_offset().AsNumber();
      if (numeric < 0) {
        Value negated = condition.rhs_offset().is_int64()
                            ? Value(-condition.rhs_offset().int64())
                            : Value(-condition.rhs_offset().as_double());
        out += " - " + negated.ToString();
      } else {
        out += " + " + condition.rhs_offset().ToString();
      }
    }
  }
  return out;
}

}  // namespace ses
