#include "engine/engine.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/executor.h"
#include "core/partitioned.h"
#include "exec/parallel_partitioned.h"

namespace ses::engine {

namespace {

Status ValidateSink(const EngineOptions& options) {
  if (options.sink == nullptr) {
    return Status::InvalidArgument(
        "EngineOptions::sink must be set (use CollectInto to gather matches "
        "into a vector)");
  }
  return Status::OK();
}

Status RequirePartitionAttribute(const plan::CompiledPlan& plan,
                                 std::string_view engine) {
  if (plan.has_partition_attribute()) return Status::OK();
  return Status::FailedPrecondition(
      std::string(engine) +
      " engine requires a partition attribute: the pattern's equality "
      "conditions must form a complete graph on one attribute "
      "(see core/partitioned.h)");
}

/// True when bit `i` of a §4.5 pass-bitmap is set; a null bitmap passes
/// every event.
bool Passes(const uint64_t* pass, size_t i) {
  return pass == nullptr || ((pass[i >> 6] >> (i & 63)) & 1) != 0;
}

/// Registry names, the clock hook and the matcher-specific part of the
/// stats snapshot of the two inline engines below.
std::string_view InlineEngineName(const SesExecutor&) { return "serial"; }
std::string_view InlineEngineName(const PartitionedMatcher&) {
  return "partitioned";
}

void AdvanceClock(SesExecutor& matcher, Timestamp now,
                  std::vector<Match>* out) {
  matcher.AdvanceTo(now, out);
}
void AdvanceClock(PartitionedMatcher& matcher, Timestamp now,
                  std::vector<Match>* out) {
  matcher.EvictIdle(now, out);
}

void FillMatcherStats(const SesExecutor& matcher, EngineStats* stats) {
  const ExecutorStats& executor = matcher.stats();
  stats->instances_created = executor.instances_created;
  stats->instances_pruned = executor.instances_expired;
  stats->max_simultaneous_instances = executor.max_simultaneous_instances;
}

void FillMatcherStats(const PartitionedMatcher& matcher, EngineStats* stats) {
  stats->num_partitions = matcher.num_partitions();
  stats->partitions_evicted = matcher.stats().partitions_evicted;
  // Summed across partitions, unlike the aggregated executors' maximum.
  stats->max_simultaneous_instances =
      matcher.stats().max_simultaneous_instances;
  const ExecutorStats aggregated = matcher.AggregatedExecutorStats();
  stats->instances_created = aggregated.instances_created;
  stats->instances_pruned = aggregated.instances_expired;
}

/// "serial" (MatcherT = SesExecutor, one global automaton) and
/// "partitioned" (MatcherT = PartitionedMatcher, one executor per key):
/// the matcher runs on the pushing thread, and its matches drain to the
/// sink after every event. Neither checks the order nor filters: the
/// stream stage has.
template <typename MatcherT>
class InlineEngine : public Engine {
 public:
  InlineEngine(std::shared_ptr<const plan::CompiledPlan> plan,
               EngineOptions options, MatcherT matcher)
      : Engine(std::move(plan), std::move(options)),
        matcher_(std::move(matcher)) {}

  std::string_view name() const override { return InlineEngineName(matcher_); }

 protected:
  void PushOrdered(const Event& event) override {
    matcher_.Consume(event, &buffer_);
    if constexpr (std::is_same_v<MatcherT, PartitionedMatcher>) {
      // Per event, not per call, so no counter depends on batch sizes.
      matcher_.EvictIdle(event.timestamp(), &buffer_);
    }
    Drain(/*early=*/true);
  }

  void AdvanceOrdered(Timestamp now) override {
    AdvanceClock(matcher_, now, &buffer_);
    Drain(/*early=*/true);
  }

  void FlushImpl() override {
    matcher_.Flush(&buffer_);
    Drain(/*early=*/false);
  }

  void ResetImpl() override {
    matcher_.Reset();
    buffer_.clear();
    stats_ = EngineStats{};
  }

  EngineStats StatsImpl() const override {
    EngineStats stats = stats_;
    FillMatcherStats(matcher_, &stats);
    return stats;
  }

  void CheckpointImpl(std::string* out) override {
    matcher_.Checkpoint(out);
    storage::PutSigned(out, stats_.matches_emitted);
    storage::PutSigned(out, stats_.matches_emitted_early);
    storage::PutSigned(out, stats_.max_buffered_matches);
  }

  Status RestoreImpl(const char** p, const char* limit) override {
    SES_RETURN_IF_ERROR(matcher_.Restore(p, limit));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.matches_emitted));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.matches_emitted_early));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.max_buffered_matches));
    return Status::OK();
  }

 private:
  void Drain(bool early) {
    stats_.max_buffered_matches = std::max(
        stats_.max_buffered_matches, static_cast<int64_t>(buffer_.size()));
    for (Match& match : buffer_) {
      ++stats_.matches_emitted;
      if (early) ++stats_.matches_emitted_early;
      options_.sink(std::move(match));
    }
    buffer_.clear();
  }

  MatcherT matcher_;
  std::vector<Match> buffer_;
  EngineStats stats_;
};

/// "parallel": the sharded runtime with the sink wired through. Only the
/// events the stage's filter passes are routed, copied into batches, or
/// queued; a dropped event advances no shard (its clock hook is the
/// default no-op), so delivery stays watermark-bounded (SEMANTICS §8).
class ParallelEngine : public Engine {
 public:
  static Result<std::unique_ptr<Engine>> Make(
      std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
    auto engine = std::unique_ptr<ParallelEngine>(
        new ParallelEngine(std::move(plan), std::move(options)));
    exec::ParallelOptions parallel;
    parallel.num_shards = engine->options_.num_shards;
    parallel.batch_size = engine->options_.batch_size;
    parallel.queue_capacity = engine->options_.queue_capacity;
    parallel.emit_interval_events = engine->options_.emit_interval_events;
    parallel.matcher = MatcherOptions{.enable_prefilter = false};
    // The engine is heap-allocated and owns the matcher, so its address
    // outlives every sink invocation (sinks run inside Push/Flush).
    ParallelEngine* raw = engine.get();
    parallel.sink = [raw](Match&& match) { raw->OnMatch(std::move(match)); };
    SES_ASSIGN_OR_RETURN(
        exec::ParallelPartitionedMatcher matcher,
        exec::ParallelPartitionedMatcher::Create(
            engine->plan_->shared_automaton(),
            engine->plan_->partition_attribute(), std::move(parallel)));
    engine->matcher_.emplace(std::move(matcher));
    return std::unique_ptr<Engine>(std::move(engine));
  }

  std::string_view name() const override { return "parallel"; }

 protected:
  void PushOrdered(const Event& event) override { matcher_->Push(event); }

  void PushBatchOrdered(std::span<const Event> events,
                        const uint64_t* pass) override {
    if (pass == nullptr) {
      matcher_->PushBatch(events);
      return;
    }
    scratch_.clear();
    for (size_t i = 0; i < events.size(); ++i) {
      if (Passes(pass, i)) scratch_.push_back(events[i]);
    }
    if (!scratch_.empty()) matcher_->PushBatch(scratch_);
  }

  void PushColumnarOrdered(const ColumnarBatch& batch,
                           const uint64_t* pass) override {
    matcher_->PushColumnar(batch, pass);
  }

  void FlushImpl() override {
    in_flush_ = true;
    matcher_->Flush(nullptr);
    in_flush_ = false;
    const exec::ParallelStats& parallel_stats = matcher_->stats();
    stats_.max_buffered_matches = parallel_stats.max_buffered_matches;
    stats_.num_partitions = parallel_stats.partitions_created;
    stats_.partitions_evicted = parallel_stats.partitions_evicted;
    stats_.max_queue_depth = parallel_stats.max_queue_depth;
    stats_.batches_enqueued = parallel_stats.batches_enqueued;
  }

  void ResetImpl() override {
    matcher_->Reset();
    stats_ = EngineStats{};
  }

  EngineStats StatsImpl() const override { return stats_; }

  void CheckpointImpl(std::string* out) override {
    matcher_->Checkpoint(out);
    storage::PutSigned(out, stats_.matches_emitted);
    storage::PutSigned(out, stats_.matches_emitted_early);
  }

  Status RestoreImpl(const char** p, const char* limit) override {
    SES_RETURN_IF_ERROR(matcher_->Restore(p, limit));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.matches_emitted));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(p, limit, &stats_.matches_emitted_early));
    return Status::OK();
  }

 private:
  ParallelEngine(std::shared_ptr<const plan::CompiledPlan> plan,
                 EngineOptions options)
      : Engine(std::move(plan), std::move(options)) {}

  void OnMatch(Match&& match) {
    ++stats_.matches_emitted;
    if (!in_flush_) ++stats_.matches_emitted_early;
    options_.sink(std::move(match));
  }

  std::optional<exec::ParallelPartitionedMatcher> matcher_;
  /// The passing events of one PushBatchOrdered call.
  std::vector<Event> scratch_;
  bool in_flush_ = false;
  EngineStats stats_;
};

}  // namespace

Engine::Engine(std::shared_ptr<const plan::CompiledPlan> plan,
               EngineOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  if (const auto& filter = plan_->shared_prefilter();
      filter != nullptr && filter->active()) {
    filter_ = filter.get();
  }
  next_checkpoint_at_ = options_.checkpoint_interval_events;
}

Status Engine::MaybeCheckpoint() {
  if (options_.checkpoint_interval_events <= 0 ||
      options_.checkpoint_sink == nullptr ||
      stream_.events_pushed() < next_checkpoint_at_) {
    return Status::OK();
  }
  next_checkpoint_at_ =
      stream_.events_pushed() + options_.checkpoint_interval_events;
  storage::CheckpointWriter writer;
  SES_RETURN_IF_ERROR(Checkpoint(&writer));
  return options_.checkpoint_sink(writer);
}

Status Engine::Checkpoint(storage::CheckpointWriter* writer) {
  std::string base;
  storage::PutString(&base, name());
  stream_.Checkpoint(&base);
  storage::PutSigned(&base, events_filtered_);
  writer->AddSection("engine", base);
  std::string state;
  CheckpointImpl(&state);
  writer->AddSection("state", state);
  return Status::OK();
}

Status Engine::Restore(const storage::CheckpointReader& reader) {
  Reset();
  Status s = [&]() -> Status {
    Result<std::string_view> base = reader.Section("engine");
    if (!base.ok()) {
      return Status::Corruption(
          "checkpoint is missing the 'engine' section");
    }
    const char* p = base->data();
    const char* limit = base->data() + base->size();
    std::string engine_name;
    SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &engine_name));
    if (engine_name != name()) {
      return Status::InvalidArgument("checkpoint was written by engine '" +
                                     engine_name + "', not '" +
                                     std::string(name()) + "'");
    }
    SES_RETURN_IF_ERROR(stream_.Restore(&p, limit));
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &events_filtered_));
    if (p != limit) {
      return Status::Corruption(
          "checkpoint 'engine' section has trailing bytes");
    }
    Result<std::string_view> state = reader.Section("state");
    if (!state.ok()) {
      return Status::Corruption("checkpoint is missing the 'state' section");
    }
    p = state->data();
    limit = state->data() + state->size();
    SES_RETURN_IF_ERROR(RestoreImpl(&p, limit));
    if (p != limit) {
      return Status::Corruption(
          "checkpoint 'state' section has trailing bytes");
    }
    // Resume the periodic cadence from the restored event count, aligned
    // to the interval, so a restored run checkpoints at the same event
    // offsets the uninterrupted run would have.
    if (options_.checkpoint_interval_events > 0) {
      const int64_t interval = options_.checkpoint_interval_events;
      next_checkpoint_at_ = (stream_.events_pushed() / interval + 1) * interval;
    }
    return Status::OK();
  }();
  if (!s.ok()) Reset();
  return s;
}

Status Engine::Push(const Event& event) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  SES_RETURN_IF_ERROR(stream_.Admit(event.timestamp()));
  // One event is stepped, never batched: the default walk, whatever the
  // engine's batched hook does.
  const std::span<const Event> one(&event, 1);
  Engine::PushBatchOrdered(one, FilterRows(one));
  return MaybeCheckpoint();
}

Status Engine::PushBatch(std::span<const Event> events) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  const size_t admitted = stream_.AdmitPrefix(events);
  if (admitted > 0) {
    const std::span<const Event> prefix = events.first(admitted);
    PushBatchOrdered(prefix, FilterRows(prefix));
  }
  if (admitted < events.size()) {
    return stream_.OutOfOrder(events[admitted].timestamp());
  }
  return MaybeCheckpoint();
}

Status Engine::PushColumnar(const ColumnarBatch& batch) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  const std::vector<Timestamp>& timestamps = batch.timestamps();
  const size_t admitted = stream_.AdmitPrefix(timestamps);
  if (admitted < batch.size()) {
    // A backwards row: evaluate the rows before it, then refuse it.
    if (admitted > 0) EvaluateColumnar(batch.Slice(0, admitted));
    return stream_.OutOfOrder(timestamps[admitted]);
  }
  if (batch.empty()) return Status::OK();
  EvaluateColumnar(batch);
  return MaybeCheckpoint();
}

void Engine::EvaluateColumnar(const ColumnarBatch& batch) {
  PushColumnarOrdered(batch, FilterColumns(batch));
}

const uint64_t* Engine::FilterRows(std::span<const Event> events) {
  if (filter_ == nullptr) return nullptr;
  pass_words_.assign((events.size() + 63) / 64, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    if (filter_->ShouldProcess(events[i])) {
      pass_words_[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      ++events_filtered_;
    }
  }
  return pass_words_.data();
}

const uint64_t* Engine::FilterColumns(const ColumnarBatch& batch) {
  if (filter_ == nullptr) return nullptr;
  filter_->ShouldProcessColumnar(batch, &pass_words_);
  size_t passing = 0;
  for (uint64_t word : pass_words_) passing += std::popcount(word);
  events_filtered_ += static_cast<int64_t>(batch.size() - passing);
  return pass_words_.data();
}

void Engine::AdvanceOrdered(Timestamp) {}

void Engine::PushBatchOrdered(std::span<const Event> events,
                              const uint64_t* pass) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (Passes(pass, i)) {
      PushOrdered(events[i]);
    } else {
      AdvanceOrdered(events[i].timestamp());
    }
  }
}

void Engine::PushColumnarOrdered(const ColumnarBatch& batch,
                                 const uint64_t* pass) {
  const std::vector<Timestamp>& timestamps = batch.timestamps();
  for (size_t row = 0; row < batch.size(); ++row) {
    if (Passes(pass, row)) {
      PushOrdered(batch.RowEvent(row));
    } else {
      AdvanceOrdered(timestamps[row]);
    }
  }
}

Status Engine::Flush() {
  stream_.MarkFlushed();
  FlushImpl();
  return Status::OK();
}

void Engine::Reset() {
  stream_.Reset();
  events_filtered_ = 0;
  next_checkpoint_at_ = options_.checkpoint_interval_events;
  ResetImpl();
}

EngineStats Engine::stats() const {
  EngineStats stats = StatsImpl();
  stats.events_pushed = stream_.events_pushed();
  stats.events_filtered = events_filtered_;
  return stats;
}

MatchSink CollectInto(std::vector<Match>* out) {
  return [out](Match&& match) { out->push_back(std::move(match)); };
}

std::vector<std::pair<std::string, int64_t>> EngineCounters(
    const EngineStats& stats) {
  return {
      {"events_pushed", stats.events_pushed},
      {"matches_emitted", stats.matches_emitted},
      {"matches_emitted_early", stats.matches_emitted_early},
      {"max_buffered_matches", stats.max_buffered_matches},
      {"num_partitions", stats.num_partitions},
      {"events_filtered", stats.events_filtered},
      {"instances_created", stats.instances_created},
      {"instances_pruned", stats.instances_pruned},
      {"max_simultaneous_instances", stats.max_simultaneous_instances},
      {"partitions_evicted", stats.partitions_evicted},
      {"max_queue_depth", stats.max_queue_depth},
      {"batches_enqueued", stats.batches_enqueued},
  };
}

Result<std::unique_ptr<Engine>> CreateSerialEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  // Filter-free: the stream stage applies the plan's §4.5 filter. The plan
  // keeps the automaton alive.
  SesExecutor executor(&plan->automaton(),
                       MatcherOptions{.enable_prefilter = false});
  return std::unique_ptr<Engine>(new InlineEngine<SesExecutor>(
      std::move(plan), std::move(options), std::move(executor)));
}

Result<std::unique_ptr<Engine>> CreatePartitionedEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  SES_RETURN_IF_ERROR(RequirePartitionAttribute(*plan, "partitioned"));
  SES_ASSIGN_OR_RETURN(
      PartitionedMatcher matcher,
      PartitionedMatcher::Create(plan->shared_automaton(),
                                 plan->partition_attribute(),
                                 MatcherOptions{.enable_prefilter = false}));
  return std::unique_ptr<Engine>(new InlineEngine<PartitionedMatcher>(
      std::move(plan), std::move(options), std::move(matcher)));
}

Result<std::unique_ptr<Engine>> CreateParallelEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  SES_RETURN_IF_ERROR(RequirePartitionAttribute(*plan, "parallel"));
  return ParallelEngine::Make(std::move(plan), std::move(options));
}

}  // namespace ses::engine
