#ifndef SES_EVENT_RELATION_H_
#define SES_EVENT_RELATION_H_

#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "event/event.h"
#include "event/schema.h"

namespace ses {

/// An event relation: a set of events over one schema whose timestamp
/// attribute defines a total order (paper §3.1). Events are stored in
/// non-decreasing timestamp order; ValidateTotalOrder() additionally checks
/// strict ordering (no ties), which the matching semantics assume.
class EventRelation {
 public:
  EventRelation() = default;
  explicit EventRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const Event& event(size_t i) const { return events_[i]; }
  const std::vector<Event>& events() const { return events_; }

  std::vector<Event>::const_iterator begin() const { return events_.begin(); }
  std::vector<Event>::const_iterator end() const { return events_.end(); }

  /// Appends an event. Fails if the arity does not match the schema, an
  /// attribute has the wrong type, or the timestamp is smaller than the
  /// last event's (events must be appended in time order). Assigns the
  /// event id (position in the relation, 1-based like the paper's e1..e14)
  /// when the event carries kInvalidEventId.
  Status Append(Event event);

  /// Reserves room for `n` events, so a reader that knows the relation's
  /// size appends without regrowing.
  void Reserve(size_t n) { events_.reserve(n); }

  /// Appends values with the next timestamp/id without checks; for trusted
  /// generators. Still keeps ids consistent.
  void AppendUnchecked(Timestamp timestamp, std::vector<Value> values);

  /// Verifies strictly increasing timestamps (total order).
  Status ValidateTotalOrder() const;

  /// Earliest/latest timestamps; relation must be non-empty.
  Timestamp min_timestamp() const { return events_.front().timestamp(); }
  Timestamp max_timestamp() const { return events_.back().timestamp(); }

 private:
  Schema schema_;
  std::vector<Event> events_;
};

}  // namespace ses

#endif  // SES_EVENT_RELATION_H_
