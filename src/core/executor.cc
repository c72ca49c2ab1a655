#include "core/executor.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "storage/checkpoint.h"

namespace ses {

SesExecutor::SesExecutor(const SesAutomaton* automaton,
                         MatcherOptions options)
    : SesExecutor(automaton, options, nullptr) {}

SesExecutor::SesExecutor(const SesAutomaton* automaton,
                         MatcherOptions options,
                         std::shared_ptr<const EventPreFilter> filter)
    : automaton_(automaton),
      options_(options),
      filter_(filter != nullptr || !options.enable_prefilter
                  ? std::move(filter)
                  : std::make_shared<const EventPreFilter>(
                        automaton->pattern())) {}

void SesExecutor::Consume(const Event& event, std::vector<Match>* out) {
  ++stats_.events_seen;
  if (options_.enable_prefilter && !filter_->ShouldProcess(event)) {
    // §4.5: the event satisfies no constant condition, so it cannot fire
    // any transition; skip the transition evaluation over Ω entirely. It
    // still advances time, though — instances whose window it exceeds are
    // emitted/expired now, so delivery latency and the executor's pending
    // horizon never depend on how many events the filter drops.
    ++stats_.events_filtered;
    if (observer_ != nullptr) observer_->OnEvent(event, /*filtered=*/true);
    AdvanceTo(event.timestamp(), out);
    return;
  }
  ++stats_.events_processed;
  if (observer_ != nullptr) observer_->OnEvent(event, /*filtered=*/false);
  AdvanceTo(event.timestamp(), out);

  // Line 4 of Algorithm 1: a fresh instance in the start state. It dies in
  // StepInstance unless this event fires one of its transitions.
  instances_.push_back(
      AutomatonInstance{automaton_->start_state(), MatchBuffer()});

  // Lines 5-15: every instance consumes the event in place (see the class
  // comment); branches still waiting at the end follow the last slot.
  std::optional<Event> bound;
  const size_t end = instances_.size();
  write_ = head_;
  for (size_t read = head_; read < end; ++read) {
    // Most of Ω is finished matches waiting out their window: from a state
    // without outgoing transitions nothing can fire, so the instance keeps
    // its slot unless branches wait for it (or an observer must see it).
    if (write_ == read && spill_head_ == spill_.size() &&
        observer_ == nullptr &&
        automaton_->outgoing(instances_[read].state).empty()) {
      ++write_;
      continue;
    }
    StepInstance(read, event, &bound);
  }
  Drain(end);
  if (spill_head_ < spill_.size()) {
    auto waiting = spill_.begin() + static_cast<ptrdiff_t>(spill_head_);
    instances_.insert(instances_.end(), std::make_move_iterator(waiting),
                      std::make_move_iterator(spill_.end()));
  } else {
    instances_.resize(write_);
  }
  spill_.clear();
  spill_head_ = 0;
  stats_.max_simultaneous_instances =
      std::max(stats_.max_simultaneous_instances,
               static_cast<int64_t>(num_active_instances()));
}

void SesExecutor::AdvanceTo(Timestamp now, std::vector<Match>* out) {
  const Duration window = automaton_->window();
  const size_t first = head_;
  while (PendingFloor() != kNoPending && now - PendingFloor() > window) {
    AutomatonInstance& instance = instances_[head_++];
    ++stats_.instances_expired;
    bool accepted = automaton_->IsAccepting(instance.state);
    if (observer_ != nullptr) observer_->OnExpired(instance, accepted);
    if (accepted) {
      EmitMatch(instance, out);
    }
    instance.buffer = MatchBuffer();  // release the bindings now
  }
  // Drop the dead prefix once it is as long as Ω: the vector stays O(|Ω|)
  // at O(1) amortized moves per expired instance.
  if (head_ > first && 2 * head_ >= instances_.size()) {
    instances_.erase(instances_.begin(),
                     instances_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
}

void SesExecutor::StepInstance(size_t read, const Event& event,
                               std::optional<Event>* bound) {
  const AutomatonInstance& instance = instances_[read];
  const std::vector<Transition>& outgoing =
      automaton_->outgoing(instance.state);
  for (size_t t = 0; t < outgoing.size(); ++t) {
    ++stats_.transitions_evaluated;
    if (EvaluateTransition(outgoing[t], instance.buffer, event)) {
      Branch(read, t, event, bound);
      return;
    }
  }
  // A fresh start-state instance that fired nothing is discarded
  // (Algorithm 2, lines 8-10); its slot stays free.
  if (instance.state == automaton_->start_state()) return;
  // No transition fired: the event is ignored and the instance survives
  // unchanged (skip-till-next-match), in its slot unless branches wait.
  if (observer_ != nullptr) observer_->OnIgnored(instance, event);
  if (write_ == read && spill_head_ == spill_.size()) {
    ++write_;
    return;
  }
  Place(std::move(instances_[read]), read + 1);
}

void SesExecutor::Branch(size_t read, size_t first, const Event& event,
                         std::optional<Event>* bound) {
  // The instance leaves its slot: its branches refill Ω′ from there.
  const AutomatonInstance source = std::move(instances_[read]);
  if (!bound->has_value()) bound->emplace(event.Shared());
  const std::vector<Transition>& outgoing = automaton_->outgoing(source.state);
  for (size_t t = first; t < outgoing.size(); ++t) {
    const Transition& transition = outgoing[t];
    if (t > first) {
      ++stats_.transitions_evaluated;
      if (!EvaluateTransition(transition, source.buffer, event)) continue;
    }
    ++stats_.transitions_fired;
    ++stats_.instances_created;
    AutomatonInstance& branched = Place(
        AutomatonInstance{transition.to,
                          source.buffer.Extend(transition.variable, **bound)},
        read + 1);
    if (observer_ != nullptr) {
      observer_->OnTransition(source, transition, event, branched);
    }
  }
}

AutomatonInstance& SesExecutor::Place(AutomatonInstance instance,
                                      size_t free_end) {
  Drain(free_end);
  if (write_ < free_end) {
    AutomatonInstance& slot = instances_[write_++];
    slot = std::move(instance);
    return slot;
  }
  spill_.push_back(std::move(instance));
  return spill_.back();
}

void SesExecutor::Drain(size_t free_end) {
  while (spill_head_ < spill_.size() && write_ < free_end) {
    instances_[write_++] = std::move(spill_[spill_head_++]);
  }
}

bool SesExecutor::EvaluateTransition(const Transition& transition,
                                     const MatchBuffer& buffer,
                                     const Event& event) {
  for (const Condition& condition : transition.conditions) {
    if (condition.is_constant_condition()) {
      ++stats_.conditions_evaluated;
      if (!condition.EvaluateConstant(event)) return false;
      continue;
    }
    if (!EvaluateVariableCondition(condition, transition.variable, buffer,
                                   event)) {
      return false;
    }
  }
  return true;
}

bool SesExecutor::EvaluateVariableCondition(const Condition& condition,
                                            VariableId bound_variable,
                                            const MatchBuffer& buffer,
                                            const Event& event) {
  VariableId other = *condition.OtherVariable(bound_variable);
  if (other == bound_variable) {
    // Self-referential condition (v.A φ v.A'): under the decomposition
    // semantics of §3.2 both occurrences denote the same event.
    ++stats_.conditions_evaluated;
    return condition.EvaluateVariable(event, event);
  }
  // Evaluate against every binding of the other variable (group variables
  // may have several; the decomposition instantiates the condition once
  // per binding).
  bool ok = true;
  bool lhs_is_bound_var = condition.lhs().variable == bound_variable;
  buffer.ForEach([&](VariableId v, const Event& bound) {
    if (!ok || v != other) return;
    ++stats_.conditions_evaluated;
    ok = lhs_is_bound_var ? condition.EvaluateVariable(event, bound)
                          : condition.EvaluateVariable(bound, event);
  });
  return ok;
}

void SesExecutor::EmitMatch(const AutomatonInstance& instance,
                            std::vector<Match>* out) {
  ++stats_.matches_emitted;
  out->push_back(Match(instance.buffer.ToBindings()));
  if (observer_ != nullptr) observer_->OnMatch(out->back());
}

void SesExecutor::Flush(std::vector<Match>* out) {
  for (size_t i = head_; i < instances_.size(); ++i) {
    const AutomatonInstance& instance = instances_[i];
    ++stats_.instances_expired;
    bool accepted = automaton_->IsAccepting(instance.state);
    if (observer_ != nullptr) observer_->OnExpired(instance, accepted);
    if (accepted) {
      EmitMatch(instance, out);
    }
  }
  instances_.clear();
  head_ = 0;
}

void SesExecutor::Reset() {
  instances_.clear();
  head_ = 0;
  stats_ = ExecutorStats{};
}

void SesExecutor::Checkpoint(std::string* out) const {
  const Schema& schema = automaton_->pattern().schema();
  storage::PutCount(out, num_active_instances());
  for (size_t i = head_; i < instances_.size(); ++i) {
    const AutomatonInstance& instance = instances_[i];
    storage::PutSigned(out, instance.state);
    // Bindings in chronological order, so Restore can rebuild the buffer
    // with the same Extend() chain. Structural sharing across instances is
    // not preserved (it only saves memory, never changes semantics).
    std::vector<Binding> bindings = instance.buffer.ToBindings();
    storage::PutCount(out, bindings.size());
    for (const Binding& binding : bindings) {
      storage::PutSigned(out, binding.variable);
      storage::PutEventRecord(out, binding.event, schema);
    }
  }
  PutExecutorStats(out, stats_);
}

Status SesExecutor::Restore(const char** p, const char* limit) {
  Reset();
  const Schema& schema = automaton_->pattern().schema();
  uint64_t num_instances = 0;
  SES_RETURN_IF_ERROR(storage::GetItemCount(p, limit, &num_instances));
  instances_.reserve(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    int64_t state = 0;
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &state));
    if (state < 0 || state >= automaton_->num_states()) {
      Reset();
      return Status::Corruption(
          "checkpoint instance state outside the automaton");
    }
    uint64_t num_bindings = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_bindings));
    MatchBuffer buffer;
    for (uint64_t b = 0; b < num_bindings; ++b) {
      int64_t variable = 0;
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &variable));
      Event event;
      if (Status s = storage::GetEventRecord(p, limit, schema, &event);
          !s.ok()) {
        Reset();
        return s;
      }
      buffer = buffer.Extend(static_cast<VariableId>(variable),
                             std::move(event).Shared());
    }
    // Expiry by head cursor relies on Ω's invariant: every instance holds a
    // binding, in first-binding order.
    if (buffer.empty() ||
        (!instances_.empty() &&
         buffer.min_timestamp() < instances_.back().buffer.min_timestamp())) {
      Reset();
      return Status::Corruption(
          "checkpoint instance unbound or out of first-binding order");
    }
    instances_.push_back(
        AutomatonInstance{static_cast<StateId>(state), std::move(buffer)});
  }
  return GetExecutorStats(p, limit, &stats_);
}

ExecutorStats& ExecutorStats::operator+=(const ExecutorStats& other) {
  events_seen += other.events_seen;
  events_filtered += other.events_filtered;
  events_processed += other.events_processed;
  instances_created += other.instances_created;
  instances_expired += other.instances_expired;
  max_simultaneous_instances =
      std::max(max_simultaneous_instances, other.max_simultaneous_instances);
  transitions_evaluated += other.transitions_evaluated;
  transitions_fired += other.transitions_fired;
  conditions_evaluated += other.conditions_evaluated;
  matches_emitted += other.matches_emitted;
  return *this;
}

void PutExecutorStats(std::string* out, const ExecutorStats& stats) {
  storage::PutSigned(out, stats.events_seen);
  storage::PutSigned(out, stats.events_filtered);
  storage::PutSigned(out, stats.events_processed);
  storage::PutSigned(out, stats.instances_created);
  storage::PutSigned(out, stats.instances_expired);
  storage::PutSigned(out, stats.max_simultaneous_instances);
  storage::PutSigned(out, stats.transitions_evaluated);
  storage::PutSigned(out, stats.transitions_fired);
  storage::PutSigned(out, stats.conditions_evaluated);
  storage::PutSigned(out, stats.matches_emitted);
}

Status GetExecutorStats(const char** p, const char* limit,
                        ExecutorStats* stats) {
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->events_seen));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->events_filtered));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->events_processed));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->instances_created));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->instances_expired));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats->max_simultaneous_instances));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats->transitions_evaluated));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->transitions_fired));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(p, limit, &stats->conditions_evaluated));
  SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats->matches_emitted));
  return Status::OK();
}

}  // namespace ses
