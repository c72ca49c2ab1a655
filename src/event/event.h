#ifndef SES_EVENT_EVENT_H_
#define SES_EVENT_EVENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "event/schema.h"
#include "event/value.h"

namespace ses {

/// Stable identifier for an event within a relation or stream. Assigned in
/// arrival order (the paper labels events e1, e2, ...). Used to report
/// matches and to verify semantics in tests.
using EventId = int64_t;

constexpr EventId kInvalidEventId = -1;

/// An event: a tuple of non-temporal attribute values plus an occurrence
/// timestamp (paper §3.1). The attribute layout is defined by a Schema held
/// by the enclosing EventRelation; an Event does not own a schema pointer so
/// events stay compact.
///
/// An event owns its values, and a copy duplicates them, unless the event
/// came from Shared(): its values are then immutable and reference-counted,
/// so every further copy shares them. The matcher shares each event it
/// binds, so match buffers and reported matches never duplicate attributes;
/// the catalog shares each columnar row once, so every plan binding it
/// reuses one values block.
class Event {
 public:
  Event() : id_(kInvalidEventId), timestamp_(0) {}
  Event(EventId id, Timestamp timestamp, std::vector<Value> values)
      : id_(id), timestamp_(timestamp), owned_(std::move(values)) {}

  EventId id() const { return id_; }
  Timestamp timestamp() const { return timestamp_; }
  int num_values() const { return static_cast<int>(values().size()); }
  const Value& value(int attribute_index) const {
    return values()[attribute_index];
  }
  const std::vector<Value>& values() const {
    return shared_ != nullptr ? *shared_ : owned_;
  }

  /// A copy of this event whose values are shared by all of its copies.
  /// Sharing an event that is already shared copies only the pointer.
  Event Shared() const&;
  /// As above, but moves owned values into the shared block instead of
  /// copying them.
  Event Shared() &&;

  void set_id(EventId id) { id_ = id; }
  void set_timestamp(Timestamp t) { timestamp_ = t; }

  /// "e3@0+11:00:00{1, B, 84, mgl}" — id, time, values.
  std::string ToString() const;

 private:
  EventId id_;
  Timestamp timestamp_;
  // Exactly one holds the values: owned_ unless the event is shared.
  std::vector<Value> owned_;
  std::shared_ptr<const std::vector<Value>> shared_;
};

}  // namespace ses

#endif  // SES_EVENT_EVENT_H_
