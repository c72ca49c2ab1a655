#include "plan/compiled_plan.h"

#include <algorithm>
#include <utility>

#include "core/partitioned.h"

namespace ses::plan {

std::optional<std::vector<Value>> CompiledPlan::EqualityAlphabet(
    int attribute) const {
  const Pattern& pattern = automaton_->pattern();
  if (attribute < 0 || attribute >= pattern.schema().num_attributes()) {
    return std::nullopt;
  }
  const ValueType type = pattern.schema().attribute(attribute).type;
  if (type == ValueType::kDouble) return std::nullopt;
  std::vector<bool> covered(pattern.num_variables(), false);
  std::vector<Value> alphabet;
  for (const Condition& condition : pattern.conditions()) {
    if (!condition.is_constant_condition()) continue;
    const AttributeRef& lhs = condition.lhs();
    if (lhs.is_timestamp() || lhs.attribute != attribute) continue;
    if (condition.op() != ComparisonOp::kEq) continue;
    // Validation accepts any numeric constant on an INT attribute: the INT
    // value 1 satisfies `K = 1.0`, yet as routing keys 1 and 1.0 differ.
    // Coercing 1.0 to 1 would be wrong too: INT vs DOUBLE compares as
    // doubles, so above 2^53 one DOUBLE constant equals several INT values.
    if (condition.constant().type() != type) return std::nullopt;
    covered[lhs.variable] = true;
    alphabet.push_back(condition.constant());
  }
  if (!std::all_of(covered.begin(), covered.end(),
                   [](bool c) { return c; })) {
    return std::nullopt;
  }
  // Every value has the attribute's declared type, so Compare is total.
  std::sort(alphabet.begin(), alphabet.end(),
            [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  alphabet.erase(std::unique(alphabet.begin(), alphabet.end()),
                 alphabet.end());
  return alphabet;
}

Result<std::shared_ptr<const CompiledPlan>> CompilePlan(const Pattern& pattern,
                                                        PlanOptions options) {
  Result<int> found = FindPartitionAttribute(pattern);
  const int attribute = found.ok() ? *found : -1;

  std::shared_ptr<const SesAutomaton> automaton = CompileAutomaton(pattern);
  std::shared_ptr<const EventPreFilter> prefilter;
  if (options.enable_prefilter) {
    // Built against the automaton's own pattern copy, so the filter's
    // condition references stay valid for the plan's whole lifetime.
    prefilter =
        std::make_shared<const EventPreFilter>(automaton->pattern());
  }
  return std::shared_ptr<const CompiledPlan>(new CompiledPlan(
      std::move(automaton), std::move(prefilter), attribute, options));
}

}  // namespace ses::plan
