#ifndef SES_CORE_EXECUTOR_H_
#define SES_CORE_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/automaton.h"
#include "core/filter.h"
#include "core/instance.h"
#include "core/match.h"
#include "core/trace.h"

namespace ses {

/// Options for the public matching API (Matcher) and the executor it runs.
struct MatcherOptions {
  /// Enables the §4.5 event pre-filter (skipped automatically when the
  /// pattern has a variable without constant conditions; see
  /// EventPreFilter).
  bool enable_prefilter = true;
};

/// Counters collected during execution. `max_simultaneous_instances` is the
/// |Ω| statistic the paper's Experiments 1 and 2 report (measured after
/// each input event has been fully processed).
struct ExecutorStats {
  int64_t events_seen = 0;       // events offered to the executor
  int64_t events_filtered = 0;   // dropped by the pre-filter
  int64_t events_processed = 0;  // reached the instance loop
  int64_t instances_created = 0;
  int64_t instances_expired = 0;
  int64_t max_simultaneous_instances = 0;
  int64_t transitions_evaluated = 0;
  int64_t transitions_fired = 0;
  int64_t conditions_evaluated = 0;
  int64_t matches_emitted = 0;

  /// Adds every counter of `other`; the peak keeps the larger of the two
  /// (peaks of separate executors do not add up).
  ExecutorStats& operator+=(const ExecutorStats& other);
};

/// The one encoding of ExecutorStats, shared by executor checkpoints and
/// the wire's Stats packet: the ten counters in declaration order, each
/// with storage::PutSigned.
void PutExecutorStats(std::string* out, const ExecutorStats& stats);
/// Reads what PutExecutorStats wrote.
Status GetExecutorStats(const char** p, const char* limit,
                        ExecutorStats* stats);

/// Executes a SES automaton over a stream of events: function SESExec of
/// Algorithm 1, with ConsumeEvent of Algorithm 2 inlined as a private
/// helper. One difference to the paper's pseudo-code: Algorithm 1 only
/// reports a match when an instance's window expires, so matches still
/// pending at the end of a finite relation would be lost; Flush() treats
/// end-of-stream as expiry and must be called after the last event.
///
/// Ω is one vector stepped in place, ordered by first-binding time
/// (MatchBuffer::min_timestamp()). An instance that fires nothing keeps its
/// slot untouched; a fired instance's branches take its slot in transition
/// order, and only the branches that would overrun slots not yet read wait
/// in a side buffer; the fresh start instance's branches bind the newest
/// event and go last. Branches keep their parent's first binding, so the
/// order holds, and the instances whose window an event exceeds are always
/// a prefix: expiry advances a head cursor, and the earliest pending
/// binding is the head's.
class SesExecutor {
 public:
  /// `automaton` must outlive the executor and is not owned. The executor
  /// builds its own EventPreFilter from the automaton's pattern.
  SesExecutor(const SesAutomaton* automaton, MatcherOptions options);

  /// Shares a pre-built pre-filter (see plan::CompiledPlan). The filter is
  /// immutable after construction, so one instance can serve every
  /// per-partition executor of a partitioned run instead of re-scanning the
  /// pattern's conditions on every partition creation. A null filter falls
  /// back to building one, unless options.enable_prefilter is false.
  SesExecutor(const SesAutomaton* automaton, MatcherOptions options,
              std::shared_ptr<const EventPreFilter> filter);

  /// Feeds the next event. Completed matches are appended to `out`.
  /// Precondition: strictly increasing timestamps, which the executor does
  /// not check. Each entry point checks it once: Matcher::Push, an engine's
  /// or the catalog's StreamStage, or ValidateTotalOrder in the relation
  /// APIs; PartitionedMatcher, and with it every parallel shard, passes
  /// events on unchecked.
  void Consume(const Event& event, std::vector<Match>* out);

  /// Advances the executor's clock to `now`, the stream's newest
  /// timestamp, without an event: expires the prefix of Ω whose window
  /// `now` exceeds (lines 7-10 of Algorithm 1), appending the accepting
  /// instances' matches to `out`. Consume runs it first for every event,
  /// §4.5-filtered ones included: a filtered event cannot fire a
  /// transition, but it still advances time, and delivery must not wait
  /// for the next unfiltered event. A caller that feeds this executor
  /// only some of the stream's events (the catalog's type index, the
  /// serial engine's stream stage after its §4.5 filter) calls it for the
  /// rest. O(1) unless something actually expires; `now` must not precede
  /// the last consumed event.
  void AdvanceTo(Timestamp now, std::vector<Match>* out);

  /// Ends the stream: every instance in the accepting state yields a
  /// match; all instances are discarded.
  void Flush(std::vector<Match>* out);

  /// Drops all instances and statistics.
  void Reset();

  /// Serializes the executor's complete runtime state — every open
  /// automaton instance with its match buffer, plus the statistics — into
  /// `out` using the checkpoint payload primitives (storage/checkpoint.h).
  /// Call only between events (never mid-Consume).
  void Checkpoint(std::string* out) const;

  /// Restores state written by Checkpoint() into this executor (discarding
  /// whatever it held). The executor must run the same automaton the
  /// checkpoint was taken from; a state id outside the automaton is
  /// Corruption. On error the executor is left Reset().
  Status Restore(const char** p, const char* limit);

  const ExecutorStats& stats() const { return stats_; }
  size_t num_active_instances() const { return instances_.size() - head_; }
  const SesAutomaton& automaton() const { return *automaton_; }

  /// Installs an observer (nullptr to remove). Not owned; must outlive the
  /// executor or be removed before destruction.
  void set_observer(ExecutionObserver* observer) { observer_ = observer; }

 private:
  /// Read-only view of Ω for tests (tests/executor_test_peer.h).
  friend class SesExecutorTestPeer;

  /// Algorithm 2 for the instance in slot `read`: a firing transition
  /// replaces it by its branches, a non-firing event leaves it unchanged
  /// unless it still sits in the start state. `bound` is the event's shared
  /// copy (Event::Shared()), made when a transition first binds the event.
  void StepInstance(size_t read, const Event& event,
                    std::optional<Event>* bound);

  /// Moves the instance out of slot `read` and appends to Ω′ one branch per
  /// firing transition, from outgoing transition `first` (already known to
  /// fire) on.
  void Branch(size_t read, size_t first, const Event& event,
              std::optional<Event>* bound);

  /// Appends `instance` to Ω′ and returns where it landed: the next free
  /// slot below `free_end`, or the side buffer once no slot is free or
  /// earlier branches already wait there (Ω′ order is first-in, first-out).
  AutomatonInstance& Place(AutomatonInstance instance, size_t free_end);

  /// Moves waiting branches into the free slots below `free_end`.
  void Drain(size_t free_end);

  /// Evaluates Θδ of `transition` for binding `event`, against the
  /// bindings collected in `buffer`.
  bool EvaluateTransition(const Transition& transition,
                          const MatchBuffer& buffer, const Event& event);

  /// Evaluates one variable condition (v.A φ v'.A') for the new binding of
  /// `bound_variable`, against every binding of the other variable.
  bool EvaluateVariableCondition(const Condition& condition,
                                 VariableId bound_variable,
                                 const MatchBuffer& buffer,
                                 const Event& event);

  /// Sentinel: no instance holds a binding, nothing can expire.
  static constexpr Timestamp kNoPending =
      std::numeric_limits<Timestamp>::max();
  /// The earliest first-binding time in Ω (the head's), or kNoPending.
  Timestamp PendingFloor() const {
    return head_ < instances_.size()
               ? instances_[head_].buffer.min_timestamp()
               : kNoPending;
  }

  void EmitMatch(const AutomatonInstance& instance, std::vector<Match>* out);

  const SesAutomaton* automaton_;
  MatcherOptions options_;
  /// Shared with sibling executors when handed in at construction (one
  /// filter per compiled plan), privately owned otherwise; null when the
  /// filter is disabled and none was handed in.
  std::shared_ptr<const EventPreFilter> filter_;
  /// Ω is instances_[head_, end); the slots below head_ held expired
  /// instances and are erased once there are as many as live ones.
  std::vector<AutomatonInstance> instances_;
  size_t head_ = 0;
  /// Ω′ under construction while an event is consumed: slots
  /// [head_, write_) followed by spill_[spill_head_, end).
  size_t write_ = 0;
  std::vector<AutomatonInstance> spill_;
  size_t spill_head_ = 0;
  ExecutorStats stats_;

  ExecutionObserver* observer_ = nullptr;
};

}  // namespace ses

#endif  // SES_CORE_EXECUTOR_H_
