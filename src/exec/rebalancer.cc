#include "exec/rebalancer.h"

#include <algorithm>

#include "common/strings.h"
#include "storage/checkpoint.h"

namespace ses::exec {

namespace {

/// Keys idle this many windows beyond the migration horizon are dropped
/// from the tracking table entirely (their routing reverts to the hash).
constexpr Duration kPruneWindows = 4;

/// Raises the sampling interval and the per-round move cap to at least 1.
RebalanceOptions Clamped(RebalanceOptions options) {
  options.interval_events = std::max<int64_t>(options.interval_events, 1);
  options.max_moves_per_round = std::max(options.max_moves_per_round, 1);
  return options;
}

}  // namespace

ShardRebalancer::ShardRebalancer(int num_shards, Duration window,
                                 RebalanceOptions options)
    : num_shards_(std::max(num_shards, 1)),
      window_(std::max<Duration>(window, 1)),
      options_(Clamped(options)),
      next_sample_at_(options_.interval_events),
      policy_(num_shards_, window_, options_) {
  prev_busy_nanos_.assign(static_cast<size_t>(num_shards_), 0);
}

int ShardRebalancer::RouteAndObserve(const Value& key, size_t hash,
                                     Timestamp timestamp) {
  int home = static_cast<int>(hash % static_cast<size_t>(num_shards_));
  auto [it, inserted] =
      keys_.try_emplace(key, KeyState{home, home, timestamp, 0, 0, 0});
  KeyState& state = it->second;
  state.last_seen = timestamp;
  ++state.events;
  // One routed event is one unit of baseline work; the workers add the
  // instance-proportional matching work on top via ObserveKeyLoad.
  ++state.work_delta;
  if (inserted) stats_.keys_tracked = static_cast<int64_t>(keys_.size());
  return state.shard;
}

void ShardRebalancer::ObserveKeyLoad(const Value& key, int64_t work,
                                     int64_t open_instances) {
  auto it = keys_.find(key);
  if (it == keys_.end()) return;  // pruned since the worker sampled it
  it->second.work_delta += std::max<int64_t>(work, 0);
  it->second.open_instances = std::max<int64_t>(open_instances, 0);
}

void ShardRebalancer::Sample(const std::vector<ShardLoad>& loads,
                             Timestamp watermark) {
  ++stats_.rounds;
  next_sample_at_ += options_.interval_events;

  LoadSnapshot snapshot;
  snapshot.watermark = watermark;
  snapshot.window = window_;
  snapshot.shards.reserve(static_cast<size_t>(num_shards_));
  for (size_t i = 0; i < static_cast<size_t>(num_shards_); ++i) {
    int64_t busy = i < loads.size() ? loads[i].busy_nanos : 0;
    int64_t delta = busy - prev_busy_nanos_[i];
    prev_busy_nanos_[i] = busy;
    snapshot.shards.push_back(ShardSample{
        static_cast<double>(i < loads.size() ? loads[i].queue_depth : 0),
        static_cast<double>(std::max<int64_t>(delta, 0))});
  }
  snapshot.keys.reserve(keys_.size());
  for (const auto& [key, state] : keys_) {
    snapshot.keys.push_back(KeyLoad{key, state.shard, state.home,
                                    state.last_seen, state.events,
                                    state.work_delta, state.open_instances});
  }

  MigrationPlan plan = policy_.PlanMigrations(snapshot);
  ApplyPlan(plan, watermark);
  if (plan.migrating) ++stats_.migrating_rounds;
  if (plan.hot_key_mode) ++stats_.hot_key_rounds;
  stats_.cooldown_blocked += plan.cooldown_blocked;

  // The snapshot consumed this interval's deltas; open-instance counts are
  // level samples and carry over until the workers report fresh ones.
  for (auto& [key, state] : keys_) state.work_delta = 0;
  PruneIdleKeys(watermark);
  stats_.keys_tracked = static_cast<int64_t>(keys_.size());
}

void ShardRebalancer::ApplyPlan(const MigrationPlan& plan,
                                Timestamp watermark) {
  int applied = 0;
  for (const Migration& move : plan.moves) {
    auto it = keys_.find(move.key);
    if (it == keys_.end()) continue;
    KeyState& state = it->second;
    if (state.shard != move.from || move.to < 0 || move.to >= num_shards_ ||
        move.to == state.shard) {
      ++stats_.moves_rejected;
      continue;
    }
    // Correctness re-check, independent of the policy: a key may move only
    // when provably idle — its newest event more than one full pattern
    // window behind the watermark, so no live automaton instance can still
    // consume a future event of this key.
    if (state.last_seen + window_ >= watermark) {
      ++stats_.moves_rejected;
      continue;
    }
    bool was_override = state.shard != state.home;
    state.shard = move.to;
    bool is_override = state.shard != state.home;
    stats_.overrides_active += (is_override ? 1 : 0) - (was_override ? 1 : 0);
    ++stats_.keys_migrated;
    ++applied;
  }
  if (applied > 0) ++stats_.rebalances;
}

void ShardRebalancer::PruneIdleKeys(Timestamp watermark) {
  Timestamp horizon = watermark - kPruneWindows * window_;
  for (auto it = keys_.begin(); it != keys_.end();) {
    const KeyState& state = it->second;
    if (state.last_seen < horizon) {
      // Dropping the entry reverts routing to the hash shard, which is
      // safe for the same idleness reason migration is.
      if (state.shard != state.home) --stats_.overrides_active;
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardRebalancer::Reset() {
  keys_.clear();
  std::fill(prev_busy_nanos_.begin(), prev_busy_nanos_.end(), 0);
  policy_.Reset();
  stats_ = RebalancerStats{};
  next_sample_at_ = options_.interval_events;
}

void ShardRebalancer::Checkpoint(std::string* out) const {
  storage::PutSigned(out, next_sample_at_);
  storage::PutCount(out, keys_.size());
  for (const auto& [key, state] : keys_) {
    storage::PutValue(out, key);
    storage::PutSigned(out, state.home);
    storage::PutSigned(out, state.shard);
    storage::PutSigned(out, state.last_seen);
    storage::PutSigned(out, state.events);
    storage::PutSigned(out, state.work_delta);
    storage::PutSigned(out, state.open_instances);
  }
  storage::PutCount(out, prev_busy_nanos_.size());
  for (int64_t busy : prev_busy_nanos_) storage::PutSigned(out, busy);
  storage::PutSigned(out, stats_.rounds);
  storage::PutSigned(out, stats_.rebalances);
  storage::PutSigned(out, stats_.keys_migrated);
  storage::PutSigned(out, stats_.overrides_active);
  storage::PutSigned(out, stats_.keys_tracked);
  storage::PutSigned(out, stats_.migrating_rounds);
  storage::PutSigned(out, stats_.hot_key_rounds);
  storage::PutSigned(out, stats_.cooldown_blocked);
  storage::PutSigned(out, stats_.moves_rejected);
  policy_.Checkpoint(out);
}

Status ShardRebalancer::Restore(const char** p, const char* limit) {
  Reset();
  Status s = [&]() -> Status {
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &next_sample_at_));
    uint64_t num_keys = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_keys));
    for (uint64_t i = 0; i < num_keys; ++i) {
      Value key;
      SES_RETURN_IF_ERROR(storage::GetValue(p, limit, &key));
      KeyState state;
      int64_t home = 0, shard = 0;
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &home));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &shard));
      if (home < 0 || home >= num_shards_ || shard < 0 ||
          shard >= num_shards_) {
        return Status::Corruption(
            "checkpoint rebalancer key routed outside the shard range");
      }
      state.home = static_cast<int>(home);
      state.shard = static_cast<int>(shard);
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state.last_seen));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state.events));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state.work_delta));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state.open_instances));
      keys_.emplace(std::move(key), state);
    }
    uint64_t num_busy = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_busy));
    if (num_busy != prev_busy_nanos_.size()) {
      return Status::Corruption(
          "checkpoint rebalancer shard count does not match this runtime");
    }
    for (int64_t& busy : prev_busy_nanos_) {
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &busy));
    }
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.rounds));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.rebalances));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.keys_migrated));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.overrides_active));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.keys_tracked));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.migrating_rounds));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.hot_key_rounds));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.cooldown_blocked));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.moves_rejected));
    return policy_.Restore(p, limit);
  }();
  if (!s.ok()) Reset();
  return s;
}

std::string ShardRebalancer::DebugString() const {
  std::string out = strings::Format(
      "rebalancer{shards=%d window=%lld next=%lld\n", num_shards_,
      static_cast<long long>(window_),
      static_cast<long long>(next_sample_at_));
  out += strings::Format(
      " stats{rounds=%lld rebalances=%lld migrated=%lld overrides=%lld "
      "tracked=%lld migrating=%lld hot=%lld cooldown=%lld rejected=%lld}\n",
      static_cast<long long>(stats_.rounds),
      static_cast<long long>(stats_.rebalances),
      static_cast<long long>(stats_.keys_migrated),
      static_cast<long long>(stats_.overrides_active),
      static_cast<long long>(stats_.keys_tracked),
      static_cast<long long>(stats_.migrating_rounds),
      static_cast<long long>(stats_.hot_key_rounds),
      static_cast<long long>(stats_.cooldown_blocked),
      static_cast<long long>(stats_.moves_rejected));
  for (size_t i = 0; i < prev_busy_nanos_.size(); ++i) {
    out += strings::Format(" busy%zu=%lld", i,
                           static_cast<long long>(prev_busy_nanos_[i]));
  }
  out += "\n";
  for (const auto& [key, state] : keys_) {
    out += strings::Format(
        " key%s{home=%d shard=%d seen=%lld events=%lld work=%lld open=%lld}\n",
        key.ToString().c_str(), state.home, state.shard,
        static_cast<long long>(state.last_seen),
        static_cast<long long>(state.events),
        static_cast<long long>(state.work_delta),
        static_cast<long long>(state.open_instances));
  }
  out += " " + policy_.DebugString() + "}";
  return out;
}

}  // namespace ses::exec
