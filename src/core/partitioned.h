#ifndef SES_CORE_PARTITIONED_H_
#define SES_CORE_PARTITIONED_H_

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "core/matcher.h"

namespace ses {

/// Partitioned execution — a runtime optimization in the spirit of the
/// paper's future-work directions (§6) and of the PARTITION BY clause of
/// the SQL pattern-matching proposal.
///
/// When the pattern's conditions require v.A = v'.A for EVERY pair of
/// event variables (a complete equality graph on attribute A), an
/// instance's first binding fixes the value of A, and a transition that
/// binds a variable compares it with every other bound variable. Events of
/// other partitions then cannot fire a transition, so running one
/// independent matcher per distinct value of A produces the same matches
/// while each event only iterates over its own partition's instances — the
/// per-event cost drops by roughly the number of active partitions.
///
/// One exception remains: a group variable p+ in the FIRST event set. While
/// p is the only bound variable, the p+ self-loop compares p with nothing,
/// so the global automaton lets another partition's event extend the run,
/// which then fails the equality with the next variable it binds (the
/// poisoning pitfall of DESIGN.md). Per-key execution never sees that
/// event, so it can return more matches than the global matcher
/// (PartitionedMatcher.FirstSetGroupVariableFindsMoreThanGlobal). The
/// detector below does not refuse such patterns.
///
/// Note the completeness requirement: a merely *connected* equality graph
/// (a chain like Q1's Θ) is NOT sufficient — under a chain the global
/// automaton can be poisoned by cross-partition events (see DESIGN.md), so
/// partitioned execution would return strictly more matches. The detector
/// below therefore only accepts complete graphs; there, apart from the
/// exception above, the match sets are equal (property-tested against the
/// global matcher).

/// Finds an attribute on which the pattern's equality conditions form a
/// complete graph over all variables. Returns the schema attribute index,
/// or NotFound if no attribute qualifies. Only INT and STRING attributes
/// qualify (partition keys need exact equality).
Result<int> FindPartitionAttribute(const Pattern& pattern);

/// Hash of a partition-key value (INT64 or STRING; DOUBLE attributes are
/// refused as keys): the parallel runtime's shard routing and
/// PartitionedMatcher's key index.
struct PartitionKeyHash {
  size_t operator()(const Value& key) const {
    if (key.is_int64()) return std::hash<int64_t>{}(key.int64());
    return std::hash<std::string>{}(key.string());
  }
};

/// Statistics across all partitions.
struct PartitionedStats {
  /// Partitions created: on a key's first event, and on its first event
  /// after the key's partition was evicted.
  int64_t partitions_created = 0;
  /// Partitions flushed and dropped by EvictIdle.
  int64_t partitions_evicted = 0;
  int64_t events_seen = 0;
  /// Max over time of the summed active instances of all partitions.
  int64_t max_simultaneous_instances = 0;
  int64_t matches_emitted = 0;
};

/// The per-key evaluator of both partition-pure engines: one SesExecutor
/// per partition-key value, all sharing one compiled automaton and, when
/// options.enable_prefilter is set, one pre-filter. The "partitioned"
/// engine runs one PartitionedMatcher; the parallel runtime
/// (exec/parallel_partitioned.h) runs one per shard over the keys routed to
/// it. The engines build it with the filter off: their stream stage has
/// filtered already, so a dropped event reaches no partition and only
/// EvictIdle sees its timestamp.
///
/// Precondition: events arrive in strictly increasing timestamp order
/// across all keys. As with SesExecutor, nothing here checks it; each
/// entry point does, once: an engine's StreamStage, or ValidateTotalOrder
/// in PartitionedMatchRelation and the parallel RunRelation.
class PartitionedMatcher {
 public:
  /// `attribute` must be a valid partition attribute for `pattern`
  /// (validated via FindPartitionAttribute semantics; pass the result of
  /// that function). Fails if the attribute type is DOUBLE.
  static Result<PartitionedMatcher> Create(const Pattern& pattern,
                                           int attribute,
                                           MatcherOptions options = {});

  /// Shares a pre-compiled automaton — the plan-driven construction path
  /// (see plan::CompiledPlan): the powerset construction runs once per
  /// plan, not once per evaluator or per partition. `attribute` is
  /// validated the same way as above.
  static Result<PartitionedMatcher> Create(
      std::shared_ptr<const SesAutomaton> automaton, int attribute,
      MatcherOptions options = {});

  PartitionedMatcher(PartitionedMatcher&&) = default;
  PartitionedMatcher& operator=(PartitionedMatcher&&) = default;

  /// Feeds the event to its key's executor, creating the partition on
  /// first contact. Completed matches are appended to `out`.
  void Consume(const Event& event, std::vector<Match>* out);

  /// Partition eviction (docs/SEMANTICS.md §6): flushes and drops every
  /// partition whose newest event is older than `now − τe`, with τe = τ,
  /// the pattern window. Each instance of such a partition started at or
  /// before that event, and any later event of the key arrives after
  /// `now`, so the instance has logically expired: the flush emits exactly
  /// the matches the executor would emit at that expiry, and eviction
  /// never changes the match set. The evicted executors' statistics are
  /// kept in AggregatedExecutorStats. Partitions are kept in newest-event
  /// order, so a call costs O(1 + partitions evicted). `now` must not
  /// precede the last consumed event.
  void EvictIdle(Timestamp now, std::vector<Match>* out);

  /// Flushes every resident partition, in newest-event order. The
  /// partitions stay resident (empty) until Reset.
  void Flush(std::vector<Match>* out);

  /// Clears all partitions and statistics so the matcher can consume a new
  /// relation. The compiled automaton is kept.
  void Reset();

  /// Serializes all runtime state — every resident partition's key, newest
  /// timestamp and executor, in newest-event order, then the evicted
  /// partitions' executor totals and the aggregate counters — into `out`.
  void Checkpoint(std::string* out) const;

  /// Restores state written by Checkpoint(); the matcher must run the same
  /// automaton and partition attribute. On error it is left Reset().
  Status Restore(const char** p, const char* limit);

  const PartitionedStats& stats() const { return stats_; }

  /// Sum of the executor statistics of every partition, evicted ones
  /// included (filtered events, instance churn, transition/condition
  /// work). O(resident partitions); meant for end-of-run reporting, not
  /// the per-event hot path.
  ExecutorStats AggregatedExecutorStats() const;

  /// Resident partitions: created and not evicted since.
  int64_t num_partitions() const {
    return static_cast<int64_t>(partitions_.size());
  }
  const SesAutomaton& automaton() const { return *automaton_; }
  const Pattern& pattern() const { return automaton_->pattern(); }

 private:
  /// One resident key: its executor and the timestamp of its newest event
  /// (the eviction clock).
  struct Partition {
    Value key;
    Timestamp newest = 0;
    SesExecutor executor;
  };

  PartitionedMatcher(std::shared_ptr<const SesAutomaton> automaton,
                     int attribute, MatcherOptions options)
      : automaton_(std::move(automaton)),
        filter_(options.enable_prefilter
                    ? std::make_shared<const EventPreFilter>(
                          automaton_->pattern())
                    : nullptr),
        attribute_(attribute),
        options_(options) {}

  /// Appends a fresh partition for `key` at the newest end.
  std::list<Partition>::iterator AddPartition(const Value& key,
                                              Timestamp newest);

  /// Compiled once in Create and shared by every partition's executor —
  /// the powerset construction must NOT re-run per partition key.
  std::shared_ptr<const SesAutomaton> automaton_;
  /// Built once and shared by every partition's executor; null when the
  /// filter is off.
  std::shared_ptr<const EventPreFilter> filter_;
  int attribute_;
  MatcherOptions options_;
  /// Resident partitions in newest-event order, oldest first: a step moves
  /// its partition to the back, so the idle ones sit at the front. Stream
  /// timestamps strictly increase, so no two partitions share a newest
  /// timestamp.
  std::list<Partition> partitions_;
  std::unordered_map<Value, std::list<Partition>::iterator, PartitionKeyHash>
      by_key_;
  /// Evicted partitions, Reset and kept for the next new key: on streams
  /// whose keys go idle and return, eviction then costs no allocation.
  /// A new key takes a spare before anything is allocated, so resident
  /// plus spare partitions never exceed the most partitions ever resident
  /// at once.
  std::list<Partition> spare_;
  /// Executor statistics of the evicted partitions, summed.
  ExecutorStats evicted_;
  int64_t active_instances_ = 0;
  PartitionedStats stats_;
};

/// Batch API. When `attribute` is negative it is auto-detected with
/// FindPartitionAttribute (an error if no attribute qualifies).
Result<std::vector<Match>> PartitionedMatchRelation(
    const Pattern& pattern, const EventRelation& relation,
    int attribute = -1, MatcherOptions options = {},
    PartitionedStats* stats = nullptr);

}  // namespace ses

#endif  // SES_CORE_PARTITIONED_H_
