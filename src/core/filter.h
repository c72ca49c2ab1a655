#ifndef SES_CORE_FILTER_H_
#define SES_CORE_FILTER_H_

#include <cstdint>
#include <vector>

#include "event/columnar.h"
#include "event/event.h"
#include "query/pattern.h"

namespace ses {

/// The event pre-filter of §4.5: an input event is handed to the automaton
/// instances only if it satisfies at least one constant condition
/// (v.A φ C) of the pattern; all other events are dropped immediately after
/// being read. The filter does not reduce the number of automaton
/// instances, only the number of iterations over them (and, on large inputs,
/// it dominates the saved work — Experiment 3 / Figure 13).
///
/// The optimization is only sound when every event variable is constrained
/// by at least one constant condition — otherwise a dropped event might
/// have fired a transition of an unconstrained variable. When a variable
/// without constant conditions exists, the filter reports itself inactive
/// and passes every event through, preserving correctness.
///
/// One object answers both per event (ShouldProcess) and per column
/// (ShouldProcessColumnar); a compiled plan holds one and every engine's
/// stream stage applies it (engine/engine.h).
class EventPreFilter {
 public:
  explicit EventPreFilter(const Pattern& pattern);

  /// False if the optimization is disabled because the pattern has a
  /// variable without constant conditions.
  bool active() const { return active_; }

  /// True if the event must be processed (it satisfies some constant
  /// condition, or the filter is inactive).
  bool ShouldProcess(const Event& event) const;

  /// ShouldProcess over every row of `batch` at once: computes the
  /// pass-bitmap into `pass` (resized to (batch.size() + 63) / 64 words;
  /// bit r of word r/64 is set iff row r must be processed). Tail bits
  /// beyond batch.size() are zero; an inactive filter sets every row bit.
  /// The conditions are deduplicated by ConstantConditionKey and evaluated
  /// per column, those on one STRING attribute once per dictionary code.
  void ShouldProcessColumnar(const ColumnarBatch& batch,
                             std::vector<uint64_t>* pass) const;

  /// The constant conditions ShouldProcess tests, as the pattern lists
  /// them, for evaluators that share the per-event evaluation across
  /// patterns (src/catalog/ dedupes these into one bitmap table per event
  /// batch pass). An ACTIVE filter's ShouldProcess is equivalent to "any of
  /// these holds".
  const std::vector<Condition>& constant_conditions() const {
    return constant_conditions_;
  }

 private:
  std::vector<Condition> constant_conditions_;
  bool active_ = false;
  /// The distinct conditions on STRING attributes, grouped by attribute
  /// (indices into constant_conditions_): their per-dictionary-code
  /// verdicts OR into one combined verdict, so the row pass over the code
  /// column runs once per attribute instead of once per condition.
  std::vector<std::pair<int, std::vector<int>>> string_groups_;
  /// Indices of the remaining distinct conditions (INT64 / DOUBLE /
  /// timestamp), evaluated per flat column.
  std::vector<int> flat_conditions_;
};

/// Dedup identity of a constant condition as a per-event test: the lhs
/// variable does not participate in EvaluateConstant, so `c.L = 'A'` and
/// `x.L = 'A'` from different variables (or different plans — the catalog's
/// shared pre-filter table keys on this too) are the same test.
struct ConstantConditionKey {
  int attribute;
  int op;
  Value value;

  static ConstantConditionKey Of(const Condition& condition);

  bool operator<(const ConstantConditionKey& other) const;
};

/// Evaluates one constant condition `v.A φ C` over every row of a columnar
/// batch, OR-ing a 1 bit into `words` (bit r of word r/64) for each row
/// that satisfies it. `words` must hold (batch.size() + 63) / 64 zero- or
/// partially-filled words; bits for non-satisfying rows are left untouched,
/// so successive calls accumulate the §4.5 disjunction.
///
/// This is the vectorized twin of Condition::EvaluateConstant: INT64 /
/// DOUBLE / timestamp attributes run one tight loop over the flat column,
/// STRING attributes evaluate the condition once per dictionary code and
/// then map codes — no per-row Value materialization anywhere. Both paths
/// fold down to the same CompareTyped overloads (event/value.h), which is
/// what makes the row-vs-columnar equivalence an identity, not a
/// re-implementation.
void EvaluateConstantColumnar(const Condition& condition,
                              const ColumnarBatch& batch, uint64_t* words);

}  // namespace ses

#endif  // SES_CORE_FILTER_H_
