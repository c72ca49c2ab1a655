#include "core/partitioned.h"

#include "common/strings.h"
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
  return Create(CompileAutomaton(pattern), attribute, options, nullptr);
}

Result<PartitionedMatcher> PartitionedMatcher::Create(
    std::shared_ptr<const SesAutomaton> automaton, int attribute,
    MatcherOptions options, std::shared_ptr<const EventPreFilter> filter) {
  const Pattern& pattern = automaton->pattern();
  if (attribute < 0 || attribute >= pattern.schema().num_attributes()) {
    return Status::InvalidArgument("partition attribute index out of range");
  }
  if (pattern.schema().attribute(attribute).type == ValueType::kDouble) {
    return Status::InvalidArgument(
        "DOUBLE attributes cannot be used as partition keys");
  }
  return PartitionedMatcher(std::move(automaton), attribute, options,
                            std::move(filter));
}

Status PartitionedMatcher::Push(const Event& event, std::vector<Match>* out) {
  ++stats_.events_seen;
  const Value& key = event.value(attribute_);
  auto it = matchers_.find(key);
  if (it == matchers_.end()) {
    it = matchers_.emplace(key, Matcher(automaton_, options_, filter_)).first;
    stats_.num_partitions = static_cast<int64_t>(matchers_.size());
  }
  Matcher& matcher = it->second;
  int64_t before = static_cast<int64_t>(matcher.num_active_instances());
  size_t matches_before = out->size();
  SES_RETURN_IF_ERROR(matcher.Push(event, out));
  active_instances_ +=
      static_cast<int64_t>(matcher.num_active_instances()) - before;
  stats_.max_simultaneous_instances =
      std::max(stats_.max_simultaneous_instances, active_instances_);
  stats_.matches_emitted +=
      static_cast<int64_t>(out->size() - matches_before);
  return Status::OK();
}

void PartitionedMatcher::Flush(std::vector<Match>* out) {
  size_t matches_before = out->size();
  for (auto& [key, matcher] : matchers_) {
    matcher.Flush(out);
  }
  active_instances_ = 0;
  stats_.matches_emitted +=
      static_cast<int64_t>(out->size() - matches_before);
}

ExecutorStats PartitionedMatcher::AggregatedExecutorStats() const {
  ExecutorStats total;
  for (const auto& [key, matcher] : matchers_) {
    const ExecutorStats& s = matcher.stats();
    total.events_seen += s.events_seen;
    total.events_filtered += s.events_filtered;
    total.events_processed += s.events_processed;
    total.instances_created += s.instances_created;
    total.instances_expired += s.instances_expired;
    total.transitions_evaluated += s.transitions_evaluated;
    total.transitions_fired += s.transitions_fired;
    total.conditions_evaluated += s.conditions_evaluated;
    total.matches_emitted += s.matches_emitted;
  }
  // Per-partition peaks do not sum to a meaningful global peak; the
  // partitioned matcher tracks the true global peak itself (stats()).
  total.max_simultaneous_instances = stats_.max_simultaneous_instances;
  return total;
}

void PartitionedMatcher::Reset() {
  // Dropping the per-key Matchers (rather than Reset()ing each) also
  // releases their instance memory; partitions repopulate on contact. The
  // shared automaton survives, so no recompilation happens.
  matchers_.clear();
  active_instances_ = 0;
  stats_ = PartitionedStats{};
}

void PartitionedMatcher::Checkpoint(std::string* out) const {
  storage::PutCount(out, matchers_.size());
  for (const auto& [key, matcher] : matchers_) {
    storage::PutValue(out, key);
    matcher.Checkpoint(out);
  }
  storage::PutSigned(out, active_instances_);
  storage::PutSigned(out, stats_.num_partitions);
  storage::PutSigned(out, stats_.events_seen);
  storage::PutSigned(out, stats_.max_simultaneous_instances);
  storage::PutSigned(out, stats_.matches_emitted);
}

Status PartitionedMatcher::Restore(const char** p, const char* limit) {
  Reset();
  uint64_t num_matchers = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_matchers));
  for (uint64_t i = 0; i < num_matchers; ++i) {
    Value key;
    SES_RETURN_IF_ERROR(storage::GetValue(p, limit, &key));
    auto [it, inserted] =
        matchers_.emplace(std::move(key), Matcher(automaton_, options_,
                                                  filter_));
    if (!inserted) {
      Reset();
      return Status::Corruption("checkpoint has a duplicate partition key");
    }
    if (Status s = it->second.Restore(p, limit); !s.ok()) {
      Reset();
      return s;
    }
  }
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &active_instances_));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.num_partitions));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_seen));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats_.max_simultaneous_instances));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.matches_emitted));
  return Status::OK();
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
    SES_RETURN_IF_ERROR(matcher.Push(event, &matches));
  }
  matcher.Flush(&matches);
  if (stats != nullptr) *stats = matcher.stats();
  return matches;
}

}  // namespace ses
