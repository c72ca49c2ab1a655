#ifndef SES_QUERY_PATTERN_H_
#define SES_QUERY_PATTERN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "event/schema.h"
#include "query/condition.h"
#include "query/variable.h"

namespace ses {

/// Most automaton states a pattern may need. The powerset construction
/// (§4) gives event set pattern Vi 2^|Vi| states, so a pattern needs
/// Σi 2^|Vi|; Pattern::Create refuses more before anything is built. The
/// widest single event set admitted has 15 variables, which compiles in
/// ~0.1 s; each further variable doubles time and memory (EXPERIMENTS.md,
/// "Automaton size limit").
constexpr int64_t kMaxAutomatonStates = int64_t{1} << 16;

/// A sequenced event set pattern P = (⟨V1,...,Vm⟩, Θ, τ) (Definition 1).
///
/// A Pattern is immutable once created and is bound to the event schema it
/// was validated against: attribute references in conditions are resolved to
/// schema indices. Use PatternBuilder or ParsePattern (query/parser.h) to
/// construct patterns.
class Pattern {
 public:
  /// One event set pattern Vi: the ids of its variables, in declaration
  /// order.
  using EventSet = std::vector<VariableId>;

  /// Validates and creates a pattern.
  ///
  /// `variables[v].set_index` must be consistent with membership in `sets`;
  /// validation enforces: at least one set, no empty set, ≤ kMaxVariables
  /// variables, ≤ kMaxAutomatonStates automaton states, unique non-empty
  /// variable names, conditions referencing declared variables and schema
  /// attributes with comparable types, and a positive window.
  static Result<Pattern> Create(std::vector<EventVariable> variables,
                                std::vector<EventSet> sets,
                                std::vector<Condition> conditions,
                                Duration window, Schema schema);

  Pattern() = default;

  int num_variables() const { return static_cast<int>(variables_.size()); }
  const EventVariable& variable(VariableId v) const { return variables_[v]; }
  const std::vector<EventVariable>& variables() const { return variables_; }

  int num_sets() const { return static_cast<int>(sets_.size()); }
  const EventSet& event_set(int i) const { return sets_[i]; }
  const std::vector<EventSet>& sets() const { return sets_; }

  /// Bitmask of the variables in set i.
  VariableMask set_mask(int i) const { return set_masks_[i]; }

  /// Bitmask of the required (non-optional) variables in set i.
  VariableMask required_mask(int i) const { return required_masks_[i]; }

  /// Bitmask of all required variables of the pattern; a substitution is
  /// complete when its bound variables cover this mask.
  VariableMask required_all_mask() const { return required_all_mask_; }

  /// Bitmask of all variables in sets 0..i-1 (empty for i=0).
  VariableMask prefix_mask(int i) const { return prefix_masks_[i]; }

  const std::vector<Condition>& conditions() const { return conditions_; }
  Duration window() const { return window_; }
  const Schema& schema() const { return schema_; }

  /// Id of the variable named `name`, or NotFound.
  Result<VariableId> VariableByName(std::string_view name) const;

  bool HasGroupVariables() const;
  bool HasOptionalVariables() const;

  /// Number of group variables in set `i` (used by the Theorem 3 bounds).
  int NumGroupVariablesInSet(int i) const;

  /// True if every pair of distinct variables is mutually exclusive
  /// (Definition 6): both variables carry constant conditions on a common
  /// attribute that no single event can satisfy simultaneously. This is the
  /// Case 1 premise of the complexity analysis (§4.4). The check treats the
  /// value domain as dense, so it is conservative: it may report `false`
  /// for pairs that are exclusive only due to integer discreteness.
  bool ArePairwiseMutuallyExclusive() const;

  /// Mutual exclusivity of two specific variables (Definition 6).
  bool AreMutuallyExclusive(VariableId a, VariableId b) const;

  /// Pretty form, e.g. "(⟨{c, p+, d}, {b}⟩, Θ(7), 264h)".
  std::string ToString() const;

  /// Pretty form of one condition with variable/attribute names, e.g.
  /// "c.L = 'C'".
  std::string ConditionToString(const Condition& condition) const;

 private:
  std::vector<EventVariable> variables_;
  std::vector<EventSet> sets_;
  std::vector<VariableMask> set_masks_;
  std::vector<VariableMask> required_masks_;
  VariableMask required_all_mask_ = 0;
  std::vector<VariableMask> prefix_masks_;
  std::vector<Condition> conditions_;
  Duration window_ = 0;
  Schema schema_;
};

}  // namespace ses

#endif  // SES_QUERY_PATTERN_H_
