#include "baseline/reference_matcher.h"

#include <algorithm>

#include "common/strings.h"

namespace ses::baseline {

namespace {

/// A partial substitution: bindings in consumption order.
struct Partial {
  std::vector<Binding> bindings;

  bool empty() const { return bindings.empty(); }
  Timestamp min_timestamp() const { return bindings.front().event.timestamp(); }

  int CountBindings(VariableId v) const {
    int count = 0;
    for (const Binding& b : bindings) {
      if (b.variable == v) ++count;
    }
    return count;
  }
};

/// True if every required variable of set `i` is bound (singletons exactly
/// once is implied: the extension rule never binds a singleton twice;
/// optional variables need not be bound).
bool SetComplete(const Pattern& pattern, const Partial& partial, int i) {
  for (VariableId v : pattern.event_set(i)) {
    if (pattern.variable(v).is_required() &&
        partial.CountBindings(v) == 0) {
      return false;
    }
  }
  return true;
}

/// Highest set index with a bound variable; -1 when empty.
int CurrentSet(const Pattern& pattern, const Partial& partial) {
  int current = -1;
  for (const Binding& b : partial.bindings) {
    current = std::max(current, pattern.variable(b.variable).set_index);
  }
  return current;
}

/// True if all sets are complete (the partial is a full substitution).
bool Complete(const Pattern& pattern, const Partial& partial) {
  for (int i = 0; i < pattern.num_sets(); ++i) {
    if (!SetComplete(pattern, partial, i)) return false;
  }
  return true;
}

/// Variables that the next event may bind: unbound variables and group
/// repetitions of the current set, plus variables of any later set k such
/// that every set before k is complete (with optional variables a set may
/// be left with unbound optionals, or — when all its variables are
/// optional — skipped entirely).
std::vector<VariableId> CandidateVariables(const Pattern& pattern,
                                           const Partial& partial) {
  std::vector<VariableId> candidates;
  int current = CurrentSet(pattern, partial);
  for (int k = std::max(current, 0); k < pattern.num_sets(); ++k) {
    bool predecessors_complete = true;
    for (int j = 0; j < k; ++j) {
      if (!SetComplete(pattern, partial, j)) {
        predecessors_complete = false;
        break;
      }
    }
    if (!predecessors_complete) break;
    for (VariableId v : pattern.event_set(k)) {
      int count = partial.CountBindings(v);
      if (count == 0 || pattern.variable(v).is_group) {
        candidates.push_back(v);
      }
    }
  }
  return candidates;
}

/// Checks every pattern condition that involves `v` and only already-bound
/// variables, under the decomposition semantics (§3.2): constant conditions
/// on the new event, self-referential conditions on the new event alone,
/// and cross-variable conditions against every binding of the other
/// variable. Conditions whose other variable is still unbound are deferred
/// until that variable binds.
bool ConditionsAllow(const Pattern& pattern, const Partial& partial,
                     VariableId v, const Event& e) {
  for (const Condition& c : pattern.conditions()) {
    if (!c.References(v)) continue;
    if (c.is_constant_condition()) {
      if (!c.EvaluateConstant(e)) return false;
      continue;
    }
    VariableId other = *c.OtherVariable(v);
    if (other == v) {
      if (!c.EvaluateVariable(e, e)) return false;
      continue;
    }
    bool lhs_is_v = c.lhs().variable == v;
    for (const Binding& b : partial.bindings) {
      if (b.variable != other) continue;
      bool ok = lhs_is_v ? c.EvaluateVariable(e, b.event)
                         : c.EvaluateVariable(b.event, e);
      if (!ok) return false;
    }
  }
  return true;
}

/// Inter-set order (Definition 2, condition 2): the new event must be
/// strictly later than every event bound to an earlier set. (Trivially true
/// for strictly ordered streams; kept as an explicit rule of the oracle.)
bool OrderAllows(const Pattern& pattern, const Partial& partial,
                 VariableId v, const Event& e) {
  int set = pattern.variable(v).set_index;
  for (const Binding& b : partial.bindings) {
    if (pattern.variable(b.variable).set_index < set &&
        b.event.timestamp() >= e.timestamp()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<Match>> ReferenceMatch(const Pattern& pattern,
                                          const EventRelation& relation) {
  SES_RETURN_IF_ERROR(relation.ValidateTotalOrder());
  std::vector<Match> matches;
  std::vector<Partial> partials;

  for (const Event& e : relation) {
    partials.push_back(Partial{});  // fresh empty partial
    std::vector<Partial> next;
    for (Partial& partial : partials) {
      if (!partial.empty() &&
          e.timestamp() - partial.min_timestamp() > pattern.window()) {
        if (Complete(pattern, partial)) {
          matches.push_back(Match(partial.bindings));
        }
        continue;  // expired
      }
      bool extended = false;
      for (VariableId v : CandidateVariables(pattern, partial)) {
        if (!ConditionsAllow(pattern, partial, v, e)) continue;
        if (!OrderAllows(pattern, partial, v, e)) continue;
        Partial branch = partial;
        branch.bindings.push_back(Binding{v, e});
        next.push_back(std::move(branch));
        extended = true;
      }
      if (!extended && !partial.empty()) {
        next.push_back(std::move(partial));  // event ignored
      }
    }
    partials = std::move(next);
  }

  for (const Partial& partial : partials) {
    if (!partial.empty() && Complete(pattern, partial)) {
      matches.push_back(Match(partial.bindings));
    }
  }
  return matches;
}

Status CheckMatchInvariants(const Pattern& pattern, const Match& match) {
  // Structural rules of a substitution.
  std::vector<int> counts(pattern.num_variables(), 0);
  std::vector<EventId> ids;
  for (const Binding& b : match.bindings()) {
    if (b.variable < 0 || b.variable >= pattern.num_variables()) {
      return Status::Internal("binding references unknown variable");
    }
    ++counts[b.variable];
    ids.push_back(b.event.id());
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::Internal("substitution binds the same event twice");
  }
  for (VariableId v = 0; v < pattern.num_variables(); ++v) {
    const EventVariable& var = pattern.variable(v);
    if (counts[v] == 0) {
      if (var.is_required()) {
        return Status::Internal("required variable '" + var.name +
                                "' is unbound");
      }
      continue;  // optional variables may be absent
    }
    if (!var.is_group && counts[v] != 1) {
      return Status::Internal(strings::Format(
          "non-group variable '%s' has %d bindings", var.name.c_str(),
          counts[v]));
    }
  }

  // Condition 1: all condition instantiations hold.
  for (const Condition& c : pattern.conditions()) {
    if (c.is_constant_condition()) {
      for (const Binding& b : match.bindings()) {
        if (b.variable != c.lhs().variable) continue;
        if (!c.EvaluateConstant(b.event)) {
          return Status::Internal("violated condition: " +
                                  pattern.ConditionToString(c));
        }
      }
      continue;
    }
    VariableId lhs_var = c.lhs().variable;
    VariableId rhs_var = c.rhs_ref().variable;
    for (const Binding& lb : match.bindings()) {
      if (lb.variable != lhs_var) continue;
      if (lhs_var == rhs_var) {
        // Decomposition instantiates both occurrences with the same event.
        if (!c.EvaluateVariable(lb.event, lb.event)) {
          return Status::Internal("violated condition: " +
                                  pattern.ConditionToString(c));
        }
        continue;
      }
      for (const Binding& rb : match.bindings()) {
        if (rb.variable != rhs_var) continue;
        if (!c.EvaluateVariable(lb.event, rb.event)) {
          return Status::Internal("violated condition: " +
                                  pattern.ConditionToString(c));
        }
      }
    }
  }

  // Condition 2: events of Vi strictly precede events of Vi+1 (and, by
  // transitivity, of every later set).
  for (const Binding& a : match.bindings()) {
    for (const Binding& b : match.bindings()) {
      int set_a = pattern.variable(a.variable).set_index;
      int set_b = pattern.variable(b.variable).set_index;
      if (set_a < set_b && a.event.timestamp() >= b.event.timestamp()) {
        return Status::Internal(strings::Format(
            "event of set %d does not precede event of set %d", set_a + 1,
            set_b + 1));
      }
    }
  }

  // Condition 3: all events within the window.
  if (match.end_time() - match.start_time() > pattern.window()) {
    return Status::Internal("match exceeds window duration");
  }
  return Status::OK();
}

}  // namespace ses::baseline
