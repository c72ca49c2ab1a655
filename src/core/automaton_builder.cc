#include "core/automaton_builder.h"

#include <atomic>

#include "common/bits.h"
#include "common/logging.h"

namespace ses {

namespace {

std::atomic<int64_t> g_builds_started{0};

/// Collects Θδ for the transition binding `variable` out of a state whose
/// bound variables are `bound_mask` (= prefix of preceding sets plus the
/// subset S of the current set): all conditions that constrain `variable`
/// against a constant, against itself, or against a bound variable
/// (§4.2.1).
std::vector<Condition> CollectConditions(const Pattern& pattern,
                                         VariableId variable,
                                         VariableMask bound_mask) {
  // Constant conditions first: they depend only on the input event and
  // reject cheaply, before any condition walks the instance's bindings.
  std::vector<Condition> conditions;
  VariableMask allowed = bits::Set(bound_mask, variable);
  for (const Condition& c : pattern.conditions()) {
    if (c.References(variable) && c.is_constant_condition()) {
      conditions.push_back(c);
    }
  }
  for (const Condition& c : pattern.conditions()) {
    if (!c.References(variable) || c.is_constant_condition()) continue;
    VariableId other = *c.OtherVariable(variable);
    if (bits::Test(allowed, other)) {
      conditions.push_back(c);
    }
  }
  return conditions;
}

/// Appends the inter-set ordering constraints v'.T < v.T for every
/// variable v' of the preceding sets (§4.2.2, concatenation step).
void AppendOrderingConstraints(VariableMask prefix_mask, VariableId variable,
                               std::vector<Condition>* conditions) {
  bits::ForEachBit(prefix_mask, [&](int prev) {
    AttributeRef lhs{prev, AttributeRef::kTimestampAttribute};
    AttributeRef rhs{variable, AttributeRef::kTimestampAttribute};
    conditions->emplace_back(lhs, ComparisonOp::kLt, rhs);
  });
}

}  // namespace

int64_t AutomatonBuilder::builds_started() {
  return g_builds_started.load(std::memory_order_relaxed);
}

SesAutomaton AutomatonBuilder::Build(const Pattern& pattern) {
  g_builds_started.fetch_add(1, std::memory_order_relaxed);
  SesAutomaton automaton;
  automaton.pattern_ = pattern;

  auto intern_state = [&automaton](VariableMask mask) -> StateId {
    auto [it, inserted] = automaton.state_index_.try_emplace(
        mask, static_cast<StateId>(automaton.state_masks_.size()));
    if (inserted) {
      automaton.state_masks_.push_back(mask);
      automaton.outgoing_.emplace_back();
    }
    return it->second;
  };

  // States. Without optional variables these are, per set i, the masks
  // prefix(i) | S for S ⊆ Vi (the paper's construction). With optional
  // variables every earlier set j only needs its REQUIRED variables bound
  // (optional ones may or may not be), so states are enumerated as one
  // portion per set: a later set may hold variables only if every earlier
  // portion covers its set's required mask.
  {
    // Recursive product over sets; `prefix_ok` tells whether every chosen
    // portion so far covers its required mask (otherwise later portions
    // must stay empty).
    auto enumerate = [&](auto&& self, int i, VariableMask mask,
                         bool prefix_ok) -> void {
      if (i == pattern.num_sets()) {
        intern_state(mask);
        return;
      }
      VariableMask set_mask = pattern.set_mask(i);
      VariableMask s = 0;
      while (true) {
        if (s == 0 || prefix_ok) {
          bool next_ok =
              prefix_ok && bits::IsSubset(pattern.required_mask(i), s);
          self(self, i + 1, mask | s, next_ok);
        }
        if (s == set_mask) break;
        s = (s - set_mask) & set_mask;  // next submask, increasing order
      }
    };
    enumerate(enumerate, 0, 0, true);
  }

  automaton.start_ = 0;
  SES_CHECK(automaton.state_masks_[0] == 0);
  {
    VariableMask full = pattern.prefix_mask(pattern.num_sets() - 1) |
                        pattern.set_mask(pattern.num_sets() - 1);
    automaton.accepting_ = automaton.state_index_.at(full);
  }
  // A state accepts when all required variables are bound. Patterns
  // without optional variables have exactly one accepting state (the full
  // mask).
  automaton.is_accepting_.resize(automaton.state_masks_.size(), false);
  for (size_t q = 0; q < automaton.state_masks_.size(); ++q) {
    automaton.is_accepting_[q] =
        bits::IsSubset(pattern.required_all_mask(), automaton.state_masks_[q]);
  }

  // Transitions: for each state M and each set k that M may be working on
  // (no variables bound in later sets; every earlier set's required
  // variables bound), bind an unbound variable of set k, and loop on the
  // group variables of set k that are bound in M.
  for (StateId from = 0; from < automaton.num_states(); ++from) {
    VariableMask state_mask = automaton.state_masks_[from];
    for (int k = 0; k < pattern.num_sets(); ++k) {
      VariableMask set_mask = pattern.set_mask(k);
      // Later sets must be untouched.
      bool later_empty = true;
      for (int j = k + 1; j < pattern.num_sets(); ++j) {
        if ((state_mask & pattern.set_mask(j)) != 0) later_empty = false;
      }
      if (!later_empty) continue;
      // Earlier sets must have their required variables bound.
      bool earlier_complete = true;
      for (int j = 0; j < k; ++j) {
        if (!bits::IsSubset(pattern.required_mask(j), state_mask)) {
          earlier_complete = false;
        }
      }
      if (!earlier_complete) continue;

      VariableMask s = state_mask & set_mask;

      // Forward transitions: bind an unbound variable of set k.
      bits::ForEachBit(set_mask & ~s, [&](int v) {
        Transition t;
        t.from = from;
        t.to = automaton.state_index_.at(bits::Set(state_mask, v));
        t.variable = v;
        t.conditions = CollectConditions(pattern, v, state_mask);
        if (s == 0 && (state_mask & pattern.prefix_mask(k)) != 0) {
          // First variable of set k: events bound to preceding sets must
          // be strictly earlier (concatenation constraints, §4.2.2). Only
          // variables actually bound in M can be constrained — unbound
          // optional variables of earlier sets have no events to compare.
          AppendOrderingConstraints(state_mask & pattern.prefix_mask(k), v,
                                    &t.conditions);
        }
        automaton.outgoing_[from].push_back(std::move(t));
      });

      // Loop transitions: group variables of set k bound in M
      // (q ∪ {v+} = q). s != 0 only for the last touched set.
      bits::ForEachBit(s, [&](int v) {
        if (!pattern.variable(v).is_group) return;
        Transition t;
        t.from = from;
        t.to = from;
        t.variable = v;
        t.conditions = CollectConditions(pattern, v, state_mask);
        automaton.outgoing_[from].push_back(std::move(t));
      });
    }
  }

  return automaton;
}

}  // namespace ses
