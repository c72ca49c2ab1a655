#include "exec/rebalance_policy.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "storage/checkpoint.h"

namespace ses::exec {

namespace {

/// Tolerance for floating-point threshold comparisons.
constexpr double kEps = 1e-12;

/// Smoothed per-shard load scores. Each shard's score is
/// its share of the total smoothed queue depth plus its share of the total
/// smoothed busy time, so scores sum to 2 whenever any load exists. Depth
/// dominates when queues back up; busy time discriminates when queues
/// drain fast.
std::vector<double> ShardScores(const std::vector<EwmaGauge>& depth,
                                const std::vector<EwmaGauge>& busy) {
  double total_depth = 0;
  double total_busy = 0;
  for (const EwmaGauge& g : depth) total_depth += g.value();
  for (const EwmaGauge& g : busy) total_busy += g.value();
  std::vector<double> scores(depth.size(), 0.0);
  for (size_t i = 0; i < depth.size(); ++i) {
    scores[i] = (total_depth > 0 ? depth[i].value() / total_depth : 0) +
                (total_busy > 0 ? busy[i].value() / total_busy : 0);
  }
  return scores;
}

void ObserveShardLoads(const LoadSnapshot& snapshot,
                       std::vector<EwmaGauge>* depth,
                       std::vector<EwmaGauge>* busy) {
  for (size_t i = 0; i < snapshot.shards.size() && i < depth->size(); ++i) {
    (*depth)[i].Observe(snapshot.shards[i].queue_depth);
    (*busy)[i].Observe(std::max(snapshot.shards[i].busy_delta, 0.0));
  }
}

std::string FormatEwma(const EwmaGauge& gauge) {
  return strings::Format("%.17g/%lld", gauge.value(),
                         static_cast<long long>(gauge.samples()));
}

void CheckpointEwma(const EwmaGauge& gauge, std::string* out) {
  storage::PutDouble(out, gauge.value());
  storage::PutSigned(out, gauge.samples());
}

Status RestoreEwma(EwmaGauge* gauge, const char** p, const char* limit) {
  double value = 0;
  int64_t samples = 0;
  SES_RETURN_IF_ERROR(storage::GetDouble(p, limit, &value));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &samples));
  gauge->RestoreState(value, samples);
  return Status::OK();
}

void CheckpointEwmaVector(const std::vector<EwmaGauge>& gauges,
                          std::string* out) {
  storage::PutCount(out, gauges.size());
  for (const EwmaGauge& g : gauges) CheckpointEwma(g, out);
}

Status RestoreEwmaVector(std::vector<EwmaGauge>* gauges, const char** p,
                         const char* limit) {
  uint64_t count = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &count));
  if (count != gauges->size()) {
    return Status::Corruption(
        "checkpoint policy shard count does not match this runtime");
  }
  for (EwmaGauge& g : *gauges) {
    SES_RETURN_IF_ERROR(RestoreEwma(&g, p, limit));
  }
  return Status::OK();
}

}  // namespace

CostModelPolicy::CostModelPolicy(int num_shards, Duration window,
                                 const RebalanceOptions& options)
    : num_shards_(std::max(num_shards, 1)),
      window_(std::max<Duration>(window, 1)),
      options_(options) {
  depth_ewma_.assign(static_cast<size_t>(num_shards_),
                     EwmaGauge(options_.depth_alpha));
  busy_ewma_.assign(static_cast<size_t>(num_shards_),
                    EwmaGauge(options_.busy_alpha));
}

MigrationPlan CostModelPolicy::PlanMigrations(const LoadSnapshot& snapshot) {
  ObserveShardLoads(snapshot, &depth_ewma_, &busy_ewma_);
  UpdateKeyState(snapshot);

  std::vector<double> scores = ShardScores(depth_ewma_, busy_ewma_);
  MigrationPlan plan;
  double total = 0;
  int source = 0;
  for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
    total += scores[static_cast<size_t>(i)];
    if (scores[static_cast<size_t>(i)] > scores[static_cast<size_t>(source)]) {
      source = i;
    }
  }
  double mean = scores.empty() ? 0 : total / static_cast<double>(scores.size());
  plan.imbalance = mean > 0 ? scores[static_cast<size_t>(source)] / mean : 1.0;

  // Hysteresis: start migrating only above hi, stop only below lo; keep
  // the previous state inside the dead band.
  if (!migrating_ && plan.imbalance > options_.hi_imbalance + kEps) {
    migrating_ = true;
  } else if (migrating_ && plan.imbalance < options_.lo_imbalance - kEps) {
    migrating_ = false;
  }
  plan.migrating = migrating_;
  if (!migrating_ || num_shards_ < 2 || total <= 0) return plan;
  plan.source_shard = source;

  // Work mass on the source shard, and the share its hottest key holds.
  double source_work = 0;
  double total_work = 0;
  double hot_work = 0;
  const Value* hot_key = nullptr;
  for (const KeyLoad& key : snapshot.keys) {
    auto it = keys_.find(key.key);
    if (it == keys_.end()) continue;
    double w = it->second.work.value();
    total_work += w;
    if (key.shard != source) continue;
    source_work += w;
    if (hot_key == nullptr || w > hot_work + kEps ||
        (std::abs(w - hot_work) <= kEps && Compare(key.key, *hot_key) < 0)) {
      hot_work = w;
      hot_key = &key.key;
    }
  }
  plan.hot_key_mode =
      source_work > 0 &&
      hot_work >= options_.hot_key_fraction * source_work - kEps;

  // How much smoothed work the source should shed to come back to the
  // mean. In hot-key mode the hot key's share can never move, so the
  // target is capped at the co-resident (cold) mass.
  double target_mass =
      source_work *
      (scores[static_cast<size_t>(source)] - mean) /
      std::max(scores[static_cast<size_t>(source)], kEps);
  if (plan.hot_key_mode) {
    target_mass = std::min(target_mass, source_work - hot_work);
  }

  // Admissible candidates with their net gain under the cost model.
  struct Candidate {
    const KeyLoad* key;
    double work;
    double net;
  };
  std::vector<Candidate> candidates;
  for (const KeyLoad& key : snapshot.keys) {
    if (key.shard != source) continue;
    if (plan.hot_key_mode && hot_key != nullptr &&
        Compare(key.key, *hot_key) == 0) {
      continue;  // never move the dominant key; split its neighbors off
    }
    // Correctness gate: only provably idle keys may move (no live
    // instance anywhere, nothing in flight that could still match).
    if (key.last_seen + snapshot.window >= snapshot.watermark) continue;
    auto it = keys_.find(key.key);
    if (it == keys_.end()) continue;
    const KeyState& state = it->second;
    // Cooldown: a key never migrates twice within one window.
    if (state.has_migrated &&
        snapshot.watermark - state.last_migrated < window_) {
      ++plan.cooldown_blocked;
      continue;
    }
    double work = state.work.value();
    // Cost model. Benefit: the work the move transfers off the source.
    // Cost: fixed move cost, plus override-table growth when the key
    // currently sits on its hash home, plus the cache-warmup proxy —
    // smoothed open instances × remaining warmth, which decays linearly
    // to zero one window past the idleness horizon (a key idle for 2τ
    // or longer is stone cold and carries no warmup cost).
    Timestamp idle_for = snapshot.watermark - key.last_seen;
    double warmth = 1.0 - static_cast<double>(idle_for - snapshot.window) /
                              static_cast<double>(snapshot.window);
    warmth = std::clamp(warmth, 0.0, 1.0);
    double cost = options_.move_cost +
                  (key.shard == key.home ? options_.table_cost : 0.0) +
                  options_.warmup_weight * state.instances.value() * warmth;
    candidates.push_back(Candidate{&key, work, work - cost});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.net != b.net) return a.net > b.net;
              return Compare(a.key->key, b.key->key) < 0;
            });

  // Greedy multi-target placement over running score estimates: each
  // move shifts the key's busy share onto the currently least-loaded
  // shard (preferring the key's home shard when it is about as light,
  // which shrinks the override table instead of growing it).
  std::vector<double> adjusted = scores;
  double moved_mass = 0;
  for (const Candidate& candidate : candidates) {
    if (static_cast<int>(plan.moves.size()) >= options_.max_moves_per_round) {
      break;
    }
    if (candidate.net <= kEps) break;  // cost model: not worth moving
    if (moved_mass >= target_mass - kEps) break;  // source balanced
    int dest = -1;
    for (int i = 0; i < num_shards_; ++i) {
      if (i == source) continue;
      if (dest < 0 || adjusted[static_cast<size_t>(i)] <
                          adjusted[static_cast<size_t>(dest)]) {
        dest = i;
      }
    }
    if (dest < 0) break;
    int home = candidate.key->home;
    if (home != source && home != dest &&
        adjusted[static_cast<size_t>(home)] <=
            adjusted[static_cast<size_t>(dest)] + 0.02) {
      dest = home;
    }
    plan.moves.push_back(Migration{candidate.key->key, source, dest});
    keys_[candidate.key->key].has_migrated = true;
    keys_[candidate.key->key].last_migrated = snapshot.watermark;
    double share = total_work > 0 ? candidate.work / total_work : 0.0;
    adjusted[static_cast<size_t>(source)] -= share;
    adjusted[static_cast<size_t>(dest)] += share;
    moved_mass += candidate.work;
  }
  return plan;
}

void CostModelPolicy::Reset() {
  for (EwmaGauge& g : depth_ewma_) g.Reset();
  for (EwmaGauge& g : busy_ewma_) g.Reset();
  keys_.clear();
  migrating_ = false;
}

std::string CostModelPolicy::DebugString() const {
  std::string out =
      strings::Format("cost-model{migrating=%d", migrating_ ? 1 : 0);
  for (size_t i = 0; i < depth_ewma_.size(); ++i) {
    out += strings::Format(" shard%zu{d=%s b=%s}", i,
                           FormatEwma(depth_ewma_[i]).c_str(),
                           FormatEwma(busy_ewma_[i]).c_str());
  }
  for (const auto& [key, state] : keys_) {
    out += strings::Format(
        " key%s{w=%s i=%s mig=%d@%lld}", key.ToString().c_str(),
        FormatEwma(state.work).c_str(), FormatEwma(state.instances).c_str(),
        state.has_migrated ? 1 : 0,
        static_cast<long long>(state.last_migrated));
  }
  out += " }";
  return out;
}

void CostModelPolicy::Checkpoint(std::string* out) const {
  CheckpointEwmaVector(depth_ewma_, out);
  CheckpointEwmaVector(busy_ewma_, out);
  storage::PutBool(out, migrating_);
  storage::PutCount(out, keys_.size());
  for (const auto& [key, state] : keys_) {
    storage::PutValue(out, key);
    CheckpointEwma(state.work, out);
    CheckpointEwma(state.instances, out);
    storage::PutBool(out, state.has_migrated);
    storage::PutSigned(out, state.last_migrated);
  }
}

Status CostModelPolicy::Restore(const char** p, const char* limit) {
  Reset();
  Status s = RestoreImpl(p, limit);
  if (!s.ok()) Reset();
  return s;
}

Status CostModelPolicy::RestoreImpl(const char** p, const char* limit) {
  SES_RETURN_IF_ERROR(RestoreEwmaVector(&depth_ewma_, p, limit));
  SES_RETURN_IF_ERROR(RestoreEwmaVector(&busy_ewma_, p, limit));
  SES_RETURN_IF_ERROR(storage::GetBool(p, limit, &migrating_));
  uint64_t num_keys = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_keys));
  for (uint64_t i = 0; i < num_keys; ++i) {
    Value key;
    SES_RETURN_IF_ERROR(storage::GetValue(p, limit, &key));
    KeyState state{EwmaGauge(options_.work_alpha),
                   EwmaGauge(options_.work_alpha), false, 0};
    SES_RETURN_IF_ERROR(RestoreEwma(&state.work, p, limit));
    SES_RETURN_IF_ERROR(RestoreEwma(&state.instances, p, limit));
    SES_RETURN_IF_ERROR(storage::GetBool(p, limit, &state.has_migrated));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state.last_migrated));
    keys_.emplace(std::move(key), std::move(state));
  }
  return Status::OK();
}

void CostModelPolicy::UpdateKeyState(const LoadSnapshot& snapshot) {
  std::map<Value, KeyState, ValueOrderLess> next;
  for (const KeyLoad& key : snapshot.keys) {
    auto it = keys_.find(key.key);
    KeyState state = it != keys_.end()
                         ? std::move(it->second)
                         : KeyState{EwmaGauge(options_.work_alpha),
                                    EwmaGauge(options_.work_alpha), false, 0};
    state.work.Observe(static_cast<double>(key.work_delta));
    state.instances.Observe(static_cast<double>(key.open_instances));
    next.emplace(key.key, std::move(state));
  }
  keys_ = std::move(next);
}

}  // namespace ses::exec
