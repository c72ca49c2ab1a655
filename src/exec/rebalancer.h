#ifndef SES_EXEC_REBALANCER_H_
#define SES_EXEC_REBALANCER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "event/value.h"
#include "exec/rebalance_policy.h"
#include "metrics/metrics.h"

namespace ses::exec {

/// Counters describing what the rebalancer has done; snapshotted into
/// ParallelStats at Flush().
struct RebalancerStats {
  /// Load samples taken (every interval_events ingested events).
  int64_t rounds = 0;
  /// Migration rounds that actually moved keys.
  int64_t rebalances = 0;
  /// Keys migrated in total (including reverts to the home shard).
  int64_t keys_migrated = 0;
  /// Override-table entries currently routing a key off its hash shard.
  int64_t overrides_active = 0;
  /// Keys currently tracked (override table + recently-seen keys).
  int64_t keys_tracked = 0;
  /// Rounds the policy spent in the migrating hysteresis state.
  int64_t migrating_rounds = 0;
  /// Rounds where the source shard was dominated by one hot key and the
  /// plan split its cold co-resident keys off instead.
  int64_t hot_key_rounds = 0;
  /// Otherwise-admissible migrations suppressed by the one-window per-key
  /// cooldown.
  int64_t cooldown_blocked = 0;
  /// Planned moves the rebalancer refused at application time because the
  /// key was no longer provably idle or the move did not fit its current
  /// route (stale plan; defense in depth).
  int64_t moves_rejected = 0;
};

/// Adaptive shard rebalancer for the parallel partitioned runtime.
///
/// Static hash sharding hot-spots one worker when the key distribution is
/// skewed. This class tracks per-shard load (queue depth and busy time,
/// fed by the ingest thread every `interval_events` events) and per-key
/// load (events routed, work units and open-instance counts sampled by the
/// workers), assembles them into a LoadSnapshot, and asks the
/// CostModelPolicy (exec/rebalance_policy.h) which keys to re-route. The
/// returned plan is applied to an explicit key→shard override table the
/// ingest thread consults *before* the hash.
///
/// Only **idle** keys migrate: a key whose newest event is at least the
/// pattern window τ older than the ingest watermark. Such a key has no
/// live automaton instance anywhere — every instance would expire before
/// consuming any future event — so re-routing it cannot change the match
/// set, and the per-key ordering invariant ("all events of a key that can
/// co-occur in a match are processed by one shard, in order") is
/// preserved. docs/SEMANTICS.md §7 spells out the argument. The policy
/// plans only idle keys, and ApplyPlan() re-validates idleness before
/// applying each move, so a policy bug can cost performance but never
/// correctness. The skew-equivalence and churn tests in
/// tests/rebalance_test.cc enforce it for every thread count.
///
/// Single-threaded by design: every method is called from the ingest
/// thread only. Worker load reaches it through the cumulative busy-nanos
/// counters and the per-key load samples the runtime drains from the
/// workers before each Sample() (see ParallelPartitionedMatcher).
class ShardRebalancer {
 public:
  /// One shard's load sample: instantaneous queue depth plus the worker's
  /// cumulative busy time (the rebalancer differences consecutive samples).
  struct ShardLoad {
    int64_t queue_depth = 0;
    int64_t busy_nanos = 0;
  };

  /// `window` is the compiled pattern's τ — the idleness horizon below
  /// which a key may never migrate, and the per-key migration cooldown.
  ShardRebalancer(int num_shards, Duration window, RebalanceOptions options);

  /// Routes `key` (whose precomputed hash is `hash`) to a shard, records
  /// the observation (last-seen timestamp, per-key event count and one
  /// work unit), and returns the shard index. Consults the override table
  /// first; falls back to hash % num_shards.
  int RouteAndObserve(const Value& key, size_t hash, Timestamp timestamp);

  /// Folds a worker-side per-key load sample into the key's pending
  /// observation: `work` automaton work units since the last drain and the
  /// key's current open-instance count. Unknown (already pruned) keys are
  /// ignored.
  void ObserveKeyLoad(const Value& key, int64_t work, int64_t open_instances);

  /// True when `events_ingested` has crossed the next sampling boundary.
  bool SampleDue(int64_t events_ingested) const {
    return events_ingested >= next_sample_at_;
  }

  /// Feeds one load sample per shard, assembles the LoadSnapshot, runs the
  /// policy, and applies the planned migrations to the override table
  /// (re-validating each key's idleness first). Also prunes long-idle
  /// table entries (reverting their routing to the hash shard, which is
  /// safe for the same idleness reason).
  void Sample(const std::vector<ShardLoad>& loads, Timestamp watermark);

  /// Drops all routing state and statistics (used by Reset(): a new
  /// relation starts from pure hash routing).
  void Reset();

  /// Serializes the complete rebalancer state — the override/tracking
  /// table, busy-time baselines, sampling cursor, statistics, and the
  /// policy's state — into `out` (storage/checkpoint.h primitives).
  void Checkpoint(std::string* out) const;

  /// Restores state written by Checkpoint() of a rebalancer with the same
  /// shard count and window. On error it is left Reset().
  Status Restore(const char** p, const char* limit);

  /// Deterministic serialization of the complete rebalancer state,
  /// including the policy's. Equal strings mean equal state; a Reset()
  /// rebalancer serializes identically to a freshly constructed one.
  std::string DebugString() const;

  const RebalancerStats& stats() const { return stats_; }
  const RebalanceOptions& options() const { return options_; }

 private:
  /// Reaches ApplyPlan() with hand-made plans (tests/rebalance_test.cc).
  friend class ShardRebalancerTestPeer;

  struct KeyState {
    int home = 0;   // hash % num_shards, the route with no override
    int shard = 0;  // current route
    Timestamp last_seen = 0;
    int64_t events = 0;
    /// Work units accumulated since the last Sample() (routed events plus
    /// worker-reported automaton work).
    int64_t work_delta = 0;
    /// Open-instance count at the worker's most recent per-key sample.
    int64_t open_instances = 0;
  };

  /// Applies `plan` to the override table. A move is rejected (counted in
  /// moves_rejected, routing unchanged) unless its key is provably idle at
  /// `watermark`, `from` is the key's current shard, and `to` is another
  /// valid shard.
  void ApplyPlan(const MigrationPlan& plan, Timestamp watermark);

  void PruneIdleKeys(Timestamp watermark);

  int num_shards_;
  Duration window_;
  RebalanceOptions options_;
  int64_t next_sample_at_;

  std::map<Value, KeyState, ValueOrderLess> keys_;
  std::vector<int64_t> prev_busy_nanos_;
  CostModelPolicy policy_;
  RebalancerStats stats_;
};

}  // namespace ses::exec

#endif  // SES_EXEC_REBALANCER_H_
