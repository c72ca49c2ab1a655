#ifndef SES_CORE_INSTANCE_H_
#define SES_CORE_INSTANCE_H_

#include <memory>
#include <vector>

#include "core/match.h"
#include "event/event.h"
#include "query/variable.h"

namespace ses {

/// Identifier of an automaton state (index into SesAutomaton's state table).
using StateId = int;

/// The match buffer β of an automaton instance (Definition 3): the variable
/// bindings collected so far.
///
/// Buffers are immutable persistent lists: Extend() shares the existing
/// nodes, so branching an instance on nondeterminism (Algorithm 2, line 5)
/// costs O(1) and memory is shared across all instances that descend from a
/// common prefix. A node holds its bound event by value; the executor binds
/// only shared events (Event::Shared()), so a node copies the values
/// pointer, never the values, and one binding costs one allocation.
class MatchBuffer {
 public:
  /// The empty buffer.
  MatchBuffer() = default;

  bool empty() const { return head_ == nullptr; }
  int size() const { return size_; }

  /// Timestamp of the earliest (== first-added) binding. Requires !empty().
  Timestamp min_timestamp() const { return min_timestamp_; }

  /// Returns a buffer with the binding `variable`/`event` appended. Pass a
  /// shared event: an owned one would have its values copied into the node.
  MatchBuffer Extend(VariableId variable, Event event) const;

  /// Invokes fn(VariableId, const Event&) for each binding, newest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Node* node = head_.get(); node != nullptr;
         node = node->parent.get()) {
      fn(node->variable, node->event);
    }
  }

  /// Bindings in chronological (insertion) order.
  std::vector<Binding> ToBindings() const;

 private:
  struct Node {
    std::shared_ptr<const Node> parent;
    VariableId variable;
    Event event;
  };

  std::shared_ptr<const Node> head_;
  Timestamp min_timestamp_ = 0;
  int size_ = 0;
};

/// An automaton instance ~N = (qc, β) (Definition 4): the current state and
/// the match buffer collected on the way there.
struct AutomatonInstance {
  StateId state = 0;
  MatchBuffer buffer;
};

}  // namespace ses

#endif  // SES_CORE_INSTANCE_H_
