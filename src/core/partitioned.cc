#include "core/partitioned.h"

#include <algorithm>
#include <iterator>

#include "storage/checkpoint.h"

namespace ses {

namespace {

/// True iff `attribute` is a valid partition attribute for `pattern`: in
/// range, not DOUBLE (partition keys need exact equality), and carrying a
/// complete pairwise equality graph over all event variables.
bool IsPartitionAttribute(const Pattern& pattern, int attribute) {
  if (attribute < 0 || attribute >= pattern.schema().num_attributes()) {
    return false;
  }
  if (pattern.schema().attribute(attribute).type == ValueType::kDouble) {
    return false;
  }
  int n = pattern.num_variables();
  if (n < 1) return false;
  // Equality adjacency on this attribute.
  std::vector<std::vector<bool>> eq(n, std::vector<bool>(n, false));
  for (const Condition& c : pattern.conditions()) {
    if (c.is_constant_condition()) continue;
    if (c.op() != ComparisonOp::kEq) continue;
    if (c.lhs().attribute != attribute || c.rhs_ref().attribute != attribute) {
      continue;
    }
    eq[c.lhs().variable][c.rhs_ref().variable] = true;
    eq[c.rhs_ref().variable][c.lhs().variable] = true;
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!eq[a][b]) return false;
    }
  }
  return true;
}

}  // namespace

Result<int> FindPartitionAttribute(const Pattern& pattern) {
  for (int attr = 0; attr < pattern.schema().num_attributes(); ++attr) {
    if (IsPartitionAttribute(pattern, attr)) return attr;
  }
  return Status::NotFound(
      "no attribute carries a complete pairwise equality graph over all "
      "event variables; partitioned execution would not be equivalent");
}

Result<PartitionedMatcher> PartitionedMatcher::Create(const Pattern& pattern,
                                                      int attribute,
                                                      MatcherOptions options) {
  return Create(CompileAutomaton(pattern), attribute, options);
}

Result<PartitionedMatcher> PartitionedMatcher::Create(
    std::shared_ptr<const SesAutomaton> automaton, int attribute,
    MatcherOptions options) {
  const Pattern& pattern = automaton->pattern();
  if (attribute < 0 || attribute >= pattern.schema().num_attributes()) {
    return Status::InvalidArgument("partition attribute index out of range");
  }
  if (pattern.schema().attribute(attribute).type == ValueType::kDouble) {
    return Status::InvalidArgument(
        "DOUBLE attributes cannot be used as partition keys");
  }
  return PartitionedMatcher(std::move(automaton), attribute, options);
}

std::list<PartitionedMatcher::Partition>::iterator
PartitionedMatcher::AddPartition(const Value& key, Timestamp newest) {
  if (spare_.empty()) {
    partitions_.push_back(Partition{
        key, newest, SesExecutor(automaton_.get(), options_, filter_)});
  } else {
    // An evicted partition's node and executor (Reset, capacity kept).
    partitions_.splice(partitions_.end(), spare_, spare_.begin());
    partitions_.back().key = key;
    partitions_.back().newest = newest;
  }
  return std::prev(partitions_.end());
}

void PartitionedMatcher::Consume(const Event& event, std::vector<Match>* out) {
  ++stats_.events_seen;
  auto [slot, created] = by_key_.try_emplace(event.value(attribute_));
  if (created) {
    slot->second = AddPartition(slot->first, event.timestamp());
    ++stats_.partitions_created;
  } else {
    partitions_.splice(partitions_.end(), partitions_, slot->second);
    slot->second->newest = event.timestamp();
  }
  SesExecutor& executor = slot->second->executor;
  const int64_t before = static_cast<int64_t>(executor.num_active_instances());
  const size_t matches_before = out->size();
  executor.Consume(event, out);
  active_instances_ +=
      static_cast<int64_t>(executor.num_active_instances()) - before;
  stats_.max_simultaneous_instances =
      std::max(stats_.max_simultaneous_instances, active_instances_);
  stats_.matches_emitted +=
      static_cast<int64_t>(out->size() - matches_before);
}

void PartitionedMatcher::EvictIdle(Timestamp now, std::vector<Match>* out) {
  const Timestamp idle_before = now - automaton_->window();
  const size_t matches_before = out->size();
  while (!partitions_.empty() && partitions_.front().newest < idle_before) {
    Partition& idle = partitions_.front();
    active_instances_ -=
        static_cast<int64_t>(idle.executor.num_active_instances());
    idle.executor.Flush(out);
    evicted_ += idle.executor.stats();
    idle.executor.Reset();
    by_key_.erase(idle.key);
    spare_.splice(spare_.end(), partitions_, partitions_.begin());
    ++stats_.partitions_evicted;
  }
  stats_.matches_emitted +=
      static_cast<int64_t>(out->size() - matches_before);
}

void PartitionedMatcher::Flush(std::vector<Match>* out) {
  const size_t matches_before = out->size();
  for (Partition& partition : partitions_) partition.executor.Flush(out);
  active_instances_ = 0;
  stats_.matches_emitted +=
      static_cast<int64_t>(out->size() - matches_before);
}

ExecutorStats PartitionedMatcher::AggregatedExecutorStats() const {
  ExecutorStats total = evicted_;
  for (const Partition& partition : partitions_) {
    total += partition.executor.stats();
  }
  // Per-partition peaks do not sum to a meaningful global peak; the
  // partitioned matcher tracks the true global peak itself (stats()).
  total.max_simultaneous_instances = stats_.max_simultaneous_instances;
  return total;
}

void PartitionedMatcher::Reset() {
  // Dropping the executors (rather than Reset()ing each) also releases
  // their instance memory; partitions repopulate on contact. The shared
  // automaton survives, so no recompilation happens.
  by_key_.clear();
  partitions_.clear();
  spare_.clear();
  evicted_ = ExecutorStats{};
  active_instances_ = 0;
  stats_ = PartitionedStats{};
}

void PartitionedMatcher::Checkpoint(std::string* out) const {
  storage::PutCount(out, partitions_.size());
  for (const Partition& partition : partitions_) {
    storage::PutValue(out, partition.key);
    storage::PutSigned(out, partition.newest);
    partition.executor.Checkpoint(out);
  }
  PutExecutorStats(out, evicted_);
  storage::PutSigned(out, active_instances_);
  storage::PutSigned(out, stats_.partitions_created);
  storage::PutSigned(out, stats_.partitions_evicted);
  storage::PutSigned(out, stats_.events_seen);
  storage::PutSigned(out, stats_.max_simultaneous_instances);
  storage::PutSigned(out, stats_.matches_emitted);
}

Status PartitionedMatcher::Restore(const char** p, const char* limit) {
  Reset();
  Status s = [&]() -> Status {
    uint64_t num_partitions = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_partitions));
    for (uint64_t i = 0; i < num_partitions; ++i) {
      Value key;
      SES_RETURN_IF_ERROR(storage::GetValue(p, limit, &key));
      if (key.type() != pattern().schema().attribute(attribute_).type) {
        return Status::Corruption(
            "checkpoint partition key does not have the attribute's type");
      }
      Timestamp newest = 0;
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &newest));
      // The payload lists partitions in newest-event order, which is the
      // eviction order; newest timestamps are unique per stream.
      if (!partitions_.empty() && newest <= partitions_.back().newest) {
        return Status::Corruption(
            "checkpoint partitions are out of newest-event order");
      }
      auto [slot, created] = by_key_.try_emplace(key);
      if (!created) {
        return Status::Corruption("checkpoint has a duplicate partition key");
      }
      slot->second = AddPartition(key, newest);
      SES_RETURN_IF_ERROR(slot->second->executor.Restore(p, limit));
    }
    SES_RETURN_IF_ERROR(GetExecutorStats(p, limit, &evicted_));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &active_instances_));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.partitions_created));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.partitions_evicted));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_seen));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.max_simultaneous_instances));
    return storage::GetSigned(p, limit, &stats_.matches_emitted);
  }();
  if (!s.ok()) Reset();
  return s;
}

Result<std::vector<Match>> PartitionedMatchRelation(
    const Pattern& pattern, const EventRelation& relation, int attribute,
    MatcherOptions options, PartitionedStats* stats) {
  SES_RETURN_IF_ERROR(relation.ValidateTotalOrder());
  if (attribute < 0) {
    SES_ASSIGN_OR_RETURN(attribute, FindPartitionAttribute(pattern));
  }
  SES_ASSIGN_OR_RETURN(PartitionedMatcher matcher,
                       PartitionedMatcher::Create(pattern, attribute,
                                                  options));
  std::vector<Match> matches;
  for (const Event& event : relation) {
    matcher.Consume(event, &matches);
  }
  matcher.Flush(&matches);
  if (stats != nullptr) *stats = matcher.stats();
  return matches;
}

}  // namespace ses
