#ifndef SES_CATALOG_SHARED_INDEX_H_
#define SES_CATALOG_SHARED_INDEX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "catalog/query_catalog.h"
#include "event/columnar.h"
#include "event/event.h"
#include "query/condition.h"

namespace ses::catalog {

/// The work shared across all plans of one catalog snapshot, rebuilt
/// whenever the registered set changes:
///
///   * the inverted event-type index — type value → sorted positions of
///     the plans whose alphabet contains it — plus the sorted positions of
///     the "universal" plans (no complete alphabet on the type attribute),
///     which must see every event. The type attribute is the one on which
///     the most plans have a complete equality alphabet (ties to the lowest
///     index; see plan::CompiledPlan::EqualityAlphabet);
///   * the deduplicated constant-condition table and one bitmask per plan
///     over it, realizing every plan's active §4.5 pre-filter as a single
///     AND against a bitmap computed at most once per event.
///
/// Per-event protocol (single-threaded, like the engines it feeds):
/// BeginEvent, then InterestedPlans for the candidate set, then
/// PassesPrefilter per candidate. The bitmap is evaluated lazily on the
/// first PassesPrefilter call, so an event that interests no plan — or
/// only plans without an active pre-filter — costs no condition
/// evaluations at all. Neither structure changes any plan's match set;
/// the argument is docs/SEMANTICS.md §10.
class SharedIndex {
 public:
  /// Builds the index over `snapshot`'s plans (positions 0..size-1 in
  /// snapshot entry order).
  explicit SharedIndex(const CatalogSnapshot& snapshot);

  /// Resolved schema index of the routing attribute; -1 when the type
  /// index is inactive (empty snapshot, or no plan has a complete alphabet
  /// on any attribute).
  int type_attribute() const { return type_attribute_; }
  bool type_index_active() const { return type_attribute_ >= 0; }

  /// Size of the deduplicated constant-condition table, and the sum of the
  /// per-plan condition-list sizes it replaced (the shared-evaluation
  /// saving is the ratio).
  int64_t num_distinct_conditions() const {
    return static_cast<int64_t>(conditions_.size());
  }
  int64_t num_plan_conditions() const { return num_plan_conditions_; }

  /// Starts a new event: invalidates the lazy bitmap.
  void BeginEvent(const Event& event);

  /// Positions of the plans this event must be offered to, sorted
  /// ascending (deterministic evaluation order). With the type index
  /// inactive this is every plan. The reference is valid until the next BeginEvent.
  const std::vector<int>& InterestedPlans(const Event& event);

  /// Whether plan `pos` must process the current event: true when the plan
  /// has no active pre-filter, else whether any of its constant
  /// conditions holds (read off the shared bitmap). Call only between
  /// BeginEvent(e) and the next BeginEvent, with `e` the same event.
  bool PassesPrefilter(int pos, const Event& event);

  /// Columnar batch protocol, the vectorized twin of BeginEvent/
  /// InterestedPlans/PassesPrefilter: BeginBatch evaluates the whole
  /// deduplicated condition table per column (core/filter.h,
  /// EvaluateConstantColumnar) and folds each plan's mask into one
  /// pass-bitmap over the batch's ROWS, so the per-row prefilter answer is
  /// a single bit test. For a STRING routing attribute the typed-plan
  /// lookup is resolved once per dictionary code, not once per row.
  /// Answers are row-for-row identical to the per-event protocol over the
  /// same events (differential-tested in tests/columnar_test.cc).
  void BeginBatch(const ColumnarBatch& batch);

  /// Plans row `row` must be offered to; reference valid until the next
  /// InterestedPlansRow/InterestedPlans/BeginBatch call. Call only between
  /// BeginBatch(b) and the next BeginBatch/BeginEvent, with `b` the same
  /// batch.
  const std::vector<int>& InterestedPlansRow(const ColumnarBatch& batch,
                                             size_t row);

  /// Whether plan `pos` must process row `row` of the batch passed to
  /// BeginBatch.
  bool PassesPrefilterRow(int pos, size_t row) const;

 private:
  void EvaluateBitmap(const Event& event);

  int type_attribute_ = -1;
  int num_plans_ = 0;
  int64_t num_plan_conditions_ = 0;

  /// Type value → sorted plan positions whose alphabet contains it. Every
  /// key has the type attribute's declared type, which is never DOUBLE.
  std::map<Value, std::vector<int>, ValueLess> typed_plans_;
  /// Sorted positions of plans that must see every event.
  std::vector<int> universal_plans_;
  /// All positions 0..N-1; returned when the type index is inactive.
  std::vector<int> all_plans_;

  /// Deduplicated constant conditions (one representative each; the lhs
  /// variable id is irrelevant to EvaluateConstant).
  std::vector<Condition> conditions_;
  /// Per plan: bitmask over `conditions_` of its active pre-filter's
  /// conditions; empty = no active pre-filter for this plan (pass always).
  std::vector<std::vector<uint64_t>> masks_;

  /// Per-event scratch.
  std::vector<uint64_t> bitmap_;
  bool bitmap_valid_ = false;
  std::vector<int> interested_;

  /// Per-batch scratch (BeginBatch). plan_pass_[pos] is plan pos's
  /// pass-bitmap over the batch rows; empty = no active pre-filter (pass
  /// always). condition_rows_[i] is condition i's row bitmap.
  std::vector<std::vector<uint64_t>> condition_rows_;
  std::vector<std::vector<uint64_t>> plan_pass_;
  /// STRING routing attribute only: dictionary code → typed plan list
  /// (null = no plan's alphabet contains the value).
  std::vector<const std::vector<int>*> code_plans_;
};

}  // namespace ses::catalog

#endif  // SES_CATALOG_SHARED_INDEX_H_
