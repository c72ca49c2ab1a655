#ifndef SES_CORE_AUTOMATON_H_
#define SES_CORE_AUTOMATON_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "query/pattern.h"

namespace ses {

/// A transition δ = (q, v, Θδ) of a SES automaton (Definition 3). The
/// target state is q ∪ {v}; for a group variable already in q the
/// transition loops (q ∪ {v+} = q).
struct Transition {
  StateId from = 0;
  StateId to = 0;
  VariableId variable = 0;
  /// Θδ: the pattern conditions that constrain events bound to `variable`
  /// with respect to constants, to variables of preceding event set
  /// patterns, and to variables of the source state — plus the synthesized
  /// inter-set ordering constraints v'.T < v.T added by concatenation
  /// (§4.2.2). Ordered constants-first: the constant conditions (v.A φ C)
  /// lead, the conditions that reference variables follow.
  std::vector<Condition> conditions;

  bool is_loop() const { return from == to; }
};

/// The SES automaton N = (Q, Δ, qs, qf, τ) (Definition 3). States are
/// subsets of the pattern's event variables, identified by dense StateIds;
/// the subset itself is available as a 64-bit VariableMask. Built by
/// AutomatonBuilder (core/automaton_builder.h); immutable afterwards.
class SesAutomaton {
 public:
  SesAutomaton() = default;

  /// The pattern this automaton was built from (owned copy).
  const Pattern& pattern() const { return pattern_; }

  int num_states() const { return static_cast<int>(state_masks_.size()); }
  VariableMask state_mask(StateId q) const { return state_masks_[q]; }

  StateId start_state() const { return start_; }

  /// The state in which every variable is bound. For patterns without
  /// optional variables this is the unique accepting state qf; with
  /// optional variables prefer IsAccepting().
  StateId accepting_state() const { return accepting_; }

  /// True if `q` accepts: every required variable is bound. The match
  /// buffer of an instance expiring in an accepting state is a matching
  /// substitution.
  bool IsAccepting(StateId q) const { return is_accepting_[q]; }

  int num_accepting_states() const;

  /// Transitions leaving state q (including loops at q).
  const std::vector<Transition>& outgoing(StateId q) const {
    return outgoing_[q];
  }

  int num_transitions() const;

  /// The maximal duration τ spanned by the events of a match.
  Duration window() const { return pattern_.window(); }

  /// StateId of the state with the given variable mask, or NotFound.
  /// Intended for tests that assert the construction of §4.2.
  Result<StateId> StateByMask(VariableMask mask) const;

  /// Name of a state as the concatenation of its variables, "()" for the
  /// start state — e.g. "cdp+" (the style of Figures 3-6).
  std::string StateName(StateId q) const;

  /// Human-readable description of every state and transition.
  std::string ToString() const;

  /// Graphviz dot rendering (states as nodes, transitions labeled with the
  /// bound variable and its conditions) — handy for documentation and
  /// debugging; Figure 5 of the paper is this output for the running
  /// example.
  std::string ToDot() const;

 private:
  friend class AutomatonBuilder;

  Pattern pattern_;
  std::vector<VariableMask> state_masks_;
  std::unordered_map<VariableMask, StateId> state_index_;
  std::vector<std::vector<Transition>> outgoing_;
  std::vector<bool> is_accepting_;
  StateId start_ = 0;
  StateId accepting_ = 0;
};

}  // namespace ses

#endif  // SES_CORE_AUTOMATON_H_
