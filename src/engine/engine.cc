#include "engine/engine.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <utility>

#include "core/matcher.h"
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

/// "serial": one global Matcher; matches drain to the sink on every Push.
class SerialEngine : public Engine {
 public:
  SerialEngine(std::shared_ptr<const plan::CompiledPlan> plan,
               EngineOptions options)
      : Engine(std::move(plan), std::move(options)),
        matcher_(plan_->shared_automaton(), plan_->matcher_options(),
                 plan_->shared_prefilter()) {}

  std::string_view name() const override { return "serial"; }

 protected:
  Status PushOrdered(const Event& event) override {
    SES_RETURN_IF_ERROR(matcher_.Push(event, &buffer_));
    Drain(/*early=*/true);
    return Status::OK();
  }

  Status FlushImpl() override {
    matcher_.Flush(&buffer_);
    Drain(/*early=*/false);
    return Status::OK();
  }

  void ResetImpl() override {
    matcher_.Reset();
    buffer_.clear();
    stats_ = EngineStats{};
  }

  EngineStats StatsImpl() const override {
    EngineStats stats = stats_;
    const ExecutorStats& executor = matcher_.stats();
    stats.events_filtered = executor.events_filtered;
    stats.instances_created = executor.instances_created;
    stats.instances_pruned = executor.instances_expired;
    stats.max_simultaneous_instances = executor.max_simultaneous_instances;
    return stats;
  }

  Status CheckpointImpl(std::string* out) override {
    matcher_.Checkpoint(out);
    storage::PutSigned(out, stats_.matches_emitted);
    storage::PutSigned(out, stats_.matches_emitted_early);
    storage::PutSigned(out, stats_.max_buffered_matches);
    return Status::OK();
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

  Matcher matcher_;
  std::vector<Match> buffer_;
  EngineStats stats_;
};

/// "partitioned": serial partition-pure execution, one Matcher per key.
class PartitionedEngine : public Engine {
 public:
  PartitionedEngine(std::shared_ptr<const plan::CompiledPlan> plan,
                    EngineOptions options, PartitionedMatcher matcher)
      : Engine(std::move(plan), std::move(options)),
        matcher_(std::move(matcher)) {}

  std::string_view name() const override { return "partitioned"; }

 protected:
  Status PushOrdered(const Event& event) override {
    SES_RETURN_IF_ERROR(matcher_.Push(event, &buffer_));
    Drain(/*early=*/true);
    return Status::OK();
  }

  Status FlushImpl() override {
    matcher_.Flush(&buffer_);
    Drain(/*early=*/false);
    return Status::OK();
  }

  void ResetImpl() override {
    matcher_.Reset();
    buffer_.clear();
    stats_ = EngineStats{};
  }

  EngineStats StatsImpl() const override {
    EngineStats stats = stats_;
    stats.num_partitions = matcher_.num_partitions();
    stats.max_simultaneous_instances =
        matcher_.stats().max_simultaneous_instances;
    const ExecutorStats aggregated = matcher_.AggregatedExecutorStats();
    stats.events_filtered = aggregated.events_filtered;
    stats.instances_created = aggregated.instances_created;
    stats.instances_pruned = aggregated.instances_expired;
    return stats;
  }

  Status CheckpointImpl(std::string* out) override {
    matcher_.Checkpoint(out);
    storage::PutSigned(out, stats_.matches_emitted);
    storage::PutSigned(out, stats_.matches_emitted_early);
    storage::PutSigned(out, stats_.max_buffered_matches);
    return Status::OK();
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

  PartitionedMatcher matcher_;
  std::vector<Match> buffer_;
  EngineStats stats_;
};

/// "parallel": the sharded runtime with the sink wired through. The plan's
/// pre-filter additionally runs at ingest, so filtered events are never
/// routed, copied into batches, or queued.
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
    parallel.idle_timeout = engine->options_.idle_timeout;
    parallel.emit_interval_events = engine->options_.emit_interval_events;
    parallel.rebalance = engine->options_.rebalance;
    parallel.matcher = engine->plan_->matcher_options();
    // The engine is heap-allocated and owns the matcher, so its address
    // outlives every sink invocation (sinks run inside Push/Flush).
    ParallelEngine* raw = engine.get();
    parallel.sink = [raw](Match&& match) { raw->OnMatch(std::move(match)); };
    SES_ASSIGN_OR_RETURN(
        exec::ParallelPartitionedMatcher matcher,
        exec::ParallelPartitionedMatcher::Create(
            engine->plan_->shared_automaton(),
            engine->plan_->partition_attribute(), std::move(parallel),
            engine->plan_->shared_prefilter()));
    engine->matcher_.emplace(std::move(matcher));
    if (const auto& filter = engine->plan_->shared_prefilter();
        filter != nullptr && filter->active()) {
      engine->ingest_filter_ = filter.get();
    }
    return std::unique_ptr<Engine>(std::move(engine));
  }

  std::string_view name() const override { return "parallel"; }

 protected:
  Status PushOrdered(const Event& event) override {
    if (ingest_filter_ != nullptr && !ingest_filter_->ShouldProcess(event)) {
      ++stats_.events_filtered;
      return Status::OK();
    }
    return matcher_->Push(event);
  }

  Status PushBatchOrdered(std::span<const Event> events) override {
    if (ingest_filter_ == nullptr) return matcher_->PushBatch(events);
    scratch_.clear();
    for (const Event& event : events) {
      if (ingest_filter_->ShouldProcess(event)) scratch_.push_back(event);
    }
    stats_.events_filtered +=
        static_cast<int64_t>(events.size() - scratch_.size());
    if (scratch_.empty()) return Status::OK();
    return matcher_->PushBatch(scratch_);
  }

  Status PushColumnarOrdered(const ColumnarBatch& batch,
                             const uint64_t* pass) override {
    // The base class already applied the vectorized pre-filter (the bitmap
    // IS this engine's ingest filter — same plan, same conditions), so the
    // sharded runtime routes straight off the columns without the row-wise
    // re-check.
    return matcher_->PushColumnar(batch, pass);
  }

  Status FlushImpl() override {
    in_flush_ = true;
    Status status = matcher_->Flush(nullptr);
    in_flush_ = false;
    const exec::ParallelStats& parallel_stats = matcher_->stats();
    stats_.max_buffered_matches = parallel_stats.max_buffered_matches;
    stats_.num_partitions = parallel_stats.partitions_created;
    stats_.partitions_evicted = parallel_stats.partitions_evicted;
    stats_.max_queue_depth = parallel_stats.max_queue_depth;
    stats_.batches_enqueued = parallel_stats.batches_enqueued;
    stats_.rebalancer = parallel_stats.rebalancer;
    return status;
  }

  void ResetImpl() override {
    matcher_->Reset();
    stats_ = EngineStats{};
  }

  EngineStats StatsImpl() const override { return stats_; }

  Status CheckpointImpl(std::string* out) override {
    SES_RETURN_IF_ERROR(matcher_->Checkpoint(out));
    storage::PutSigned(out, stats_.events_filtered);
    storage::PutSigned(out, stats_.matches_emitted);
    storage::PutSigned(out, stats_.matches_emitted_early);
    return Status::OK();
  }

  Status RestoreImpl(const char** p, const char* limit) override {
    SES_RETURN_IF_ERROR(matcher_->Restore(p, limit));
    SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &stats_.events_filtered));
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
  const EventPreFilter* ingest_filter_ = nullptr;
  std::vector<Event> scratch_;
  bool in_flush_ = false;
  EngineStats stats_;
};

}  // namespace

Engine::Engine(std::shared_ptr<const plan::CompiledPlan> plan,
               EngineOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  if (options_.lateness_bound > 0) {
    exec::ReorderOptions reorder;
    reorder.lateness_bound = options_.lateness_bound;
    reorder.late_policy = options_.late_policy;
    reorder_ = std::make_unique<exec::ReorderBuffer>(reorder);
  }
  next_checkpoint_at_ = options_.checkpoint_interval_events;
}

Status Engine::MaybeCheckpoint() {
  if (options_.checkpoint_interval_events <= 0 ||
      options_.checkpoint_sink == nullptr ||
      events_pushed_ < next_checkpoint_at_) {
    return Status::OK();
  }
  next_checkpoint_at_ = events_pushed_ + options_.checkpoint_interval_events;
  storage::CheckpointWriter writer;
  SES_RETURN_IF_ERROR(Checkpoint(&writer));
  return options_.checkpoint_sink(writer);
}

Status Engine::Checkpoint(storage::CheckpointWriter* writer) {
  std::string base;
  storage::PutString(&base, name());
  storage::PutBool(&base, flushed_);
  storage::PutBool(&base, has_last_timestamp_);
  storage::PutSigned(&base, last_timestamp_);
  storage::PutSigned(&base, events_pushed_);
  storage::PutSigned(&base, events_late_);
  storage::PutSigned(&base, events_filtered_columnar_);
  storage::PutBool(&base, reorder_ != nullptr);
  if (reorder_ != nullptr) {
    reorder_->Checkpoint(plan_->pattern().schema(), &base);
  }
  writer->AddSection("engine", base);
  std::string state;
  SES_RETURN_IF_ERROR(CheckpointImpl(&state));
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
    SES_RETURN_IF_ERROR(storage::GetBool(&p, limit, &flushed_));
    SES_RETURN_IF_ERROR(storage::GetBool(&p, limit, &has_last_timestamp_));
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &last_timestamp_));
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &events_pushed_));
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &events_late_));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(&p, limit, &events_filtered_columnar_));
    bool has_reorder = false;
    SES_RETURN_IF_ERROR(storage::GetBool(&p, limit, &has_reorder));
    if (has_reorder != (reorder_ != nullptr)) {
      return Status::InvalidArgument(
          "checkpoint lateness configuration does not match this engine");
    }
    if (reorder_ != nullptr) {
      SES_RETURN_IF_ERROR(
          reorder_->Restore(plan_->pattern().schema(), &p, limit));
    }
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
      next_checkpoint_at_ = (events_pushed_ / interval + 1) * interval;
    }
    return Status::OK();
  }();
  if (!s.ok()) Reset();
  return s;
}

Status Engine::HandleLate(const Event& event) {
  ++events_late_;
  if (options_.late_policy == exec::LatePolicy::kDrop) return Status::OK();
  return Status::InvalidArgument(
      "out-of-order event at t=" + std::to_string(event.timestamp()) +
      " (newest timestamp seen is t=" + std::to_string(last_timestamp_) +
      " and lateness_bound is 0)");
}

Status Engine::Push(const Event& event) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "Push after Flush: call Reset() before pushing a new stream");
  }
  ++events_pushed_;
  if (reorder_ != nullptr) {
    released_.clear();
    Status status = reorder_->Push(event, &released_);
    if (!released_.empty()) {
      SES_RETURN_IF_ERROR(PushBatchOrdered(released_));
    }
    SES_RETURN_IF_ERROR(status);
    return MaybeCheckpoint();
  }
  if (has_last_timestamp_ && event.timestamp() <= last_timestamp_) {
    return HandleLate(event);
  }
  last_timestamp_ = event.timestamp();
  has_last_timestamp_ = true;
  SES_RETURN_IF_ERROR(PushOrdered(event));
  return MaybeCheckpoint();
}

Status Engine::PushBatch(std::span<const Event> events) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "PushBatch after Flush: call Reset() before pushing a new stream");
  }
  events_pushed_ += static_cast<int64_t>(events.size());
  SES_RETURN_IF_ERROR(IngestSpan(events));
  return MaybeCheckpoint();
}

Status Engine::IngestSpan(std::span<const Event> events) {
  if (reorder_ != nullptr) {
    released_.clear();
    Status status = reorder_->PushBatch(events, &released_);
    if (!released_.empty()) {
      SES_RETURN_IF_ERROR(PushBatchOrdered(released_));
    }
    return status;
  }
  // lateness_bound == 0: verify the span continues the strictly increasing
  // stream, then hand it to the engine without copying.
  size_t ordered = 0;
  Timestamp last = last_timestamp_;
  bool has_last = has_last_timestamp_;
  while (ordered < events.size()) {
    const Timestamp ts = events[ordered].timestamp();
    if (has_last && ts <= last) break;
    last = ts;
    has_last = true;
    ++ordered;
  }
  if (ordered == events.size()) {
    last_timestamp_ = last;
    has_last_timestamp_ = has_last;
    return PushBatchOrdered(events);
  }
  if (options_.late_policy == exec::LatePolicy::kReject) {
    // Deliver the in-order prefix, then fail on the violating event.
    if (ordered > 0) {
      last_timestamp_ = last;
      has_last_timestamp_ = true;
      SES_RETURN_IF_ERROR(PushBatchOrdered(events.subspan(0, ordered)));
    }
    return HandleLate(events[ordered]);
  }
  // kDrop: filter the violators out and deliver the in-order remainder.
  released_.clear();
  released_.reserve(events.size());
  for (const Event& event : events) {
    if (has_last_timestamp_ && event.timestamp() <= last_timestamp_) {
      ++events_late_;
      continue;
    }
    last_timestamp_ = event.timestamp();
    has_last_timestamp_ = true;
    released_.push_back(event);
  }
  if (released_.empty()) return Status::OK();
  return PushBatchOrdered(released_);
}

Status Engine::PushColumnar(const ColumnarBatch& batch) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "PushColumnar after Flush: call Reset() before pushing a new stream");
  }
  events_pushed_ += static_cast<int64_t>(batch.size());
  if (batch.empty()) return Status::OK();
  const std::vector<Timestamp>& timestamps = batch.timestamps();
  bool in_order = reorder_ == nullptr;
  if (in_order) {
    Timestamp last = last_timestamp_;
    bool has_last = has_last_timestamp_;
    for (Timestamp ts : timestamps) {
      if (has_last && ts <= last) {
        in_order = false;
        break;
      }
      last = ts;
      has_last = true;
    }
  }
  if (!in_order) {
    // Reorder stage engaged, or the batch violates strict ordering:
    // materialize the rows and reuse the row-wise lateness machinery, so
    // the two ingest paths agree on every reject/drop decision.
    std::vector<Event> rows = batch.ToEvents();
    SES_RETURN_IF_ERROR(IngestSpan(rows));
    return MaybeCheckpoint();
  }
  last_timestamp_ = timestamps.back();
  has_last_timestamp_ = true;
  const uint64_t* pass = nullptr;
  if (const auto& filter = plan_->shared_vector_prefilter();
      filter != nullptr && filter->active()) {
    filter->EvaluateAny(batch, &pass_words_);
    pass = pass_words_.data();
    size_t passing = 0;
    for (uint64_t word : pass_words_) passing += std::popcount(word);
    events_filtered_columnar_ +=
        static_cast<int64_t>(batch.size() - passing);
  }
  SES_RETURN_IF_ERROR(PushColumnarOrdered(batch, pass));
  return MaybeCheckpoint();
}

Status Engine::PushColumnarOrdered(const ColumnarBatch& batch,
                                   const uint64_t* pass) {
  columnar_rows_.clear();
  for (size_t row = 0; row < batch.size(); ++row) {
    if (pass != nullptr && ((pass[row >> 6] >> (row & 63)) & 1) == 0) {
      continue;
    }
    columnar_rows_.push_back(batch.RowEvent(row));
  }
  if (columnar_rows_.empty()) return Status::OK();
  return PushBatchOrdered(columnar_rows_);
}

Status Engine::Flush() {
  if (reorder_ != nullptr && !flushed_) {
    released_.clear();
    Status status = reorder_->Flush(&released_);
    if (!released_.empty()) {
      SES_RETURN_IF_ERROR(PushBatchOrdered(released_));
    }
    SES_RETURN_IF_ERROR(status);
  }
  flushed_ = true;
  return FlushImpl();
}

void Engine::Reset() {
  if (reorder_ != nullptr) reorder_->Reset();
  released_.clear();
  has_last_timestamp_ = false;
  last_timestamp_ = 0;
  flushed_ = false;
  events_pushed_ = 0;
  events_late_ = 0;
  events_filtered_columnar_ = 0;
  next_checkpoint_at_ = options_.checkpoint_interval_events;
  ResetImpl();
}

EngineStats Engine::stats() const {
  EngineStats stats = StatsImpl();
  stats.events_pushed = events_pushed_;
  stats.events_filtered += events_filtered_columnar_;
  if (reorder_ != nullptr) {
    const exec::ReorderStats& reorder = reorder_->stats();
    stats.events_reordered = reorder.events_reordered;
    stats.events_late = reorder.events_late;
    stats.max_reorder_buffered = reorder.max_buffered;
  } else {
    stats.events_reordered = 0;
    stats.events_late = events_late_;
    stats.max_reorder_buffered = 0;
  }
  return stats;
}

Status Engine::PushBatchOrdered(std::span<const Event> events) {
  for (const Event& event : events) {
    SES_RETURN_IF_ERROR(PushOrdered(event));
  }
  return Status::OK();
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
      {"events_reordered", stats.events_reordered},
      {"events_late", stats.events_late},
      {"max_reorder_buffered", stats.max_reorder_buffered},
  };
}

Result<std::unique_ptr<Engine>> CreateSerialEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  return std::unique_ptr<Engine>(
      new SerialEngine(std::move(plan), std::move(options)));
}

Result<std::unique_ptr<Engine>> CreatePartitionedEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  SES_RETURN_IF_ERROR(RequirePartitionAttribute(*plan, "partitioned"));
  SES_ASSIGN_OR_RETURN(
      PartitionedMatcher matcher,
      PartitionedMatcher::Create(plan->shared_automaton(),
                                 plan->partition_attribute(),
                                 plan->matcher_options(),
                                 plan->shared_prefilter()));
  return std::unique_ptr<Engine>(new PartitionedEngine(
      std::move(plan), std::move(options), std::move(matcher)));
}

Result<std::unique_ptr<Engine>> CreateParallelEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options) {
  SES_RETURN_IF_ERROR(ValidateSink(options));
  SES_RETURN_IF_ERROR(RequirePartitionAttribute(*plan, "parallel"));
  return ParallelEngine::Make(std::move(plan), std::move(options));
}

}  // namespace ses::engine
