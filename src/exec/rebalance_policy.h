#ifndef SES_EXEC_REBALANCE_POLICY_H_
#define SES_EXEC_REBALANCE_POLICY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "event/value.h"
#include "metrics/metrics.h"

namespace ses::exec {

/// Strict weak ordering over Values, shared by the exec-layer key tables.
struct ValueOrderLess {
  bool operator()(const Value& a, const Value& b) const {
    return Compare(a, b) < 0;
  }
};

/// Knobs for the adaptive shard rebalancer (see exec::ShardRebalancer and
/// docs/RUNTIME.md §4–5). The defaults favour stability: migration starts
/// only when the smoothed imbalance is well above balanced, each round
/// moves at most max_moves_per_round keys, and a key in motion is pinned
/// for a full pattern window before it may move again.
struct RebalanceOptions {
  /// Master switch; when false the runtime routes by hash only and the
  /// rebalancer is never constructed.
  bool enabled = false;
  /// Ingested events between load samples (and hence between migration
  /// opportunities).
  int64_t interval_events = 4096;
  /// EWMA weight for queue-depth samples, in (0, 1].
  double depth_alpha = 0.4;
  /// EWMA weight for busy-time samples, in (0, 1].
  double busy_alpha = 0.4;
  /// Upper bound on keys migrated per round; bounds the routing-table
  /// churn a single skewed sample can cause.
  int max_moves_per_round = 64;
  /// Hysteresis upper threshold: migration starts when the deepest shard's
  /// smoothed load score exceeds hi_imbalance × the mean score.
  double hi_imbalance = 1.6;
  /// Hysteresis lower threshold: migration stops when the deepest shard's
  /// score falls below lo_imbalance × the mean. Between lo and hi the
  /// policy keeps its previous state (the dead band that prevents
  /// migrate/settle thrash).
  double lo_imbalance = 1.15;
  /// EWMA weight for per-key work-rate and open-instance samples.
  double work_alpha = 0.4;
  /// A shard is in "hot key" mode when one key carries at least this
  /// fraction of the shard's smoothed work. The hot key itself is then
  /// never planned for migration — its cold co-resident keys are moved
  /// away instead.
  double hot_key_fraction = 0.5;
  /// Fixed cost of any migration, in work units (routing-table churn,
  /// bookkeeping). A key migrates only when its expected transferred work
  /// exceeds its total migration cost.
  double move_cost = 0.25;
  /// Extra cost when the move grows the override table (moving a key that
  /// currently sits on its hash-home shard).
  double table_cost = 0.25;
  /// Weight of the cache-warmup proxy: smoothed open-instance count ×
  /// remaining warmth (how recently the key was active, linearly decaying
  /// to zero one window past the idleness horizon).
  double warmup_weight = 0.5;
};

/// One shard's load sample inside a LoadSnapshot: instantaneous queue
/// depth plus the busy-time delta (nanoseconds of worker processing time)
/// since the previous snapshot.
struct ShardSample {
  double queue_depth = 0;
  double busy_delta = 0;
};

/// One tracked key's observation inside a LoadSnapshot. `work_delta` is
/// the key's work units since the previous snapshot (routed events plus
/// automaton instances touched, sampled by the worker threads);
/// `open_instances` is the key's live instance count at its worker's most
/// recent per-key sample (0 once the partition was evicted).
struct KeyLoad {
  Value key;
  /// Shard currently routing the key (override table applied).
  int shard = 0;
  /// The key's hash-home shard (route with no override).
  int home = 0;
  /// Timestamp of the key's newest routed event.
  Timestamp last_seen = 0;
  /// Cumulative events routed to the key.
  int64_t events = 0;
  /// Work units observed since the previous snapshot.
  int64_t work_delta = 0;
  /// Live automaton instances at the last worker sample.
  int64_t open_instances = 0;
};

/// Everything the migration policy may look at for one planning round. The
/// snapshot is self-contained — watermark and window ride along — so the
/// policy is a pure state machine over snapshot sequences, replayable in
/// tests with no threads, sleeps, or wall clock
/// (tests/rebalance_policy_test.cc).
struct LoadSnapshot {
  /// Ingest high-water mark (newest routed event timestamp).
  Timestamp watermark = 0;
  /// The compiled pattern's window τ: the idleness horizon below which a
  /// key may never migrate, and the per-key migration cooldown span.
  Duration window = 1;
  /// Per-shard load samples, indexed by shard.
  std::vector<ShardSample> shards;
  /// Per-key observations for every tracked live key.
  std::vector<KeyLoad> keys;
};

/// One planned key migration.
struct Migration {
  Value key;
  int from = 0;
  int to = 0;
};

/// The policy's decision for one snapshot: the migrations to apply plus
/// diagnostics the tests and statistics assert on.
struct MigrationPlan {
  /// Keys to re-route, in application order.
  std::vector<Migration> moves;
  /// Hysteresis state after consuming the snapshot.
  bool migrating = false;
  /// Smoothed imbalance: deepest shard's load score over the mean score
  /// (1.0 = perfectly balanced).
  double imbalance = 0;
  /// Shard selected to shed load, or -1 when no shard was selected.
  int source_shard = -1;
  /// True when the source shard's load was dominated by a single hot key
  /// and the plan moved its cold co-resident keys instead.
  bool hot_key_mode = false;
  /// Otherwise-admissible candidates skipped because they migrated less
  /// than one window ago.
  int cooldown_blocked = 0;
};

/// The migration policy: a deterministic state machine mapping a sequence
/// of LoadSnapshots to MigrationPlans. Per-key work-rate and open-instance
/// EWMAs feed a migration cost model (expected transferred work vs fixed
/// move cost, override-table growth and a cache-warmup proxy); a
/// two-threshold hysteresis decides when to migrate, a one-window per-key
/// cooldown stops keys from bouncing, and a shard dominated by one hot key
/// sheds its cold co-resident keys instead (docs/RUNTIME.md §4.1). The
/// state is only EWMAs, the hysteresis flag and per-key cooldowns — no
/// threads, no wall clock — so scripted snapshot sequences replay
/// identically run after run. The rebalancer applies the returned plans to
/// its routing table after re-validating each move, so a policy
/// bug can cost performance but never correctness.
class CostModelPolicy {
 public:
  /// A policy for a runtime of `num_shards` shards and a pattern window of
  /// `window` ticks.
  CostModelPolicy(int num_shards, Duration window,
                  const RebalanceOptions& options);

  /// Consumes the next load snapshot and returns the migrations to apply.
  /// Deterministic: the same snapshot sequence yields the same plans.
  MigrationPlan PlanMigrations(const LoadSnapshot& snapshot);

  /// Returns the policy to its freshly constructed state.
  void Reset();

  /// Deterministic serialization of the full internal state; equal strings
  /// mean equal state (the Reset-restores-fresh-state property test).
  std::string DebugString() const;

  /// Serializes the policy's deterministic state (EWMAs, hysteresis flag,
  /// per-key cooldowns) into `out` with the checkpoint payload primitives.
  void Checkpoint(std::string* out) const;

  /// Restores state written by Checkpoint() of a policy with the same
  /// shard count. On error the policy is left Reset().
  Status Restore(const char** p, const char* limit);

 private:
  struct KeyState {
    EwmaGauge work;
    EwmaGauge instances;
    bool has_migrated = false;
    Timestamp last_migrated = 0;
  };

  Status RestoreImpl(const char** p, const char* limit);

  /// Feeds the per-key EWMAs from the snapshot and drops state for keys
  /// that left the snapshot (pruned by the rebalancer), bounding policy
  /// memory by the live key count.
  void UpdateKeyState(const LoadSnapshot& snapshot);

  int num_shards_;
  Duration window_;
  RebalanceOptions options_;
  std::vector<EwmaGauge> depth_ewma_;
  std::vector<EwmaGauge> busy_ewma_;
  std::map<Value, KeyState, ValueOrderLess> keys_;
  bool migrating_ = false;
};

}  // namespace ses::exec

#endif  // SES_EXEC_REBALANCE_POLICY_H_
