#include "exec/parallel_partitioned.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exec/batch_queue.h"
#include "metrics/metrics.h"
#include "storage/checkpoint.h"

namespace ses::exec {

namespace {

/// Sentinel for "this worker has not processed any event yet".
constexpr Timestamp kNoWatermark = std::numeric_limits<Timestamp>::min();

/// Merges sorted runs pairwise into one canonical-order run (MatchOrderLess
/// merge tree). Distinct matches never compare equal across runs —
/// partitions are disjoint — so the result order is total on the data.
std::vector<Match> MergeSortedRuns(std::vector<std::vector<Match>> runs) {
  while (runs.size() > 1) {
    std::vector<std::vector<Match>> next;
    next.reserve(runs.size() / 2 + 1);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<Match> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(std::make_move_iterator(runs[i].begin()),
                 std::make_move_iterator(runs[i].end()),
                 std::make_move_iterator(runs[i + 1].begin()),
                 std::make_move_iterator(runs[i + 1].end()),
                 std::back_inserter(merged), MatchOrderLess);
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 == 1) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  return runs.empty() ? std::vector<Match>{} : std::move(runs[0]);
}

}  // namespace

struct ParallelPartitionedMatcher::Impl {
  /// Worker-owned state is only touched by the shard's thread; the ingest
  /// thread reads or mutates it exclusively between a barrier
  /// acknowledgement (happens-before via `mu`) and the next queue Push
  /// (happens-before via the queue mutex).
  struct Shard {
    Shard(size_t queue_capacity, PartitionedMatcher matcher)
        : queue(queue_capacity), matcher(std::move(matcher)) {}

    BatchQueue queue;
    std::thread worker;

    // Worker-owned.
    /// The shard's keys: create, step, evict, flush and checkpoint.
    PartitionedMatcher matcher;
    std::vector<Match> matches;
    /// Wall-clock nanoseconds spent processing batches.
    int64_t busy_nanos = 0;

    /// Incremental emission (sink mode): per-batch sorted runs of expired
    /// matches, sealed by the worker, drained by the ingest thread.
    std::mutex runs_mu;
    std::vector<std::vector<Match>> sealed_runs;
    /// Newest event timestamp this worker has fully processed. Stored with
    /// release order AFTER the batch's run is sealed, so an ingest-side
    /// acquire load that observes the watermark also finds every run of
    /// matches emitted at or below it.
    std::atomic<Timestamp> published{kNoWatermark};

    // Barrier acknowledgement for kFlush/kReset control batches.
    std::mutex mu;
    std::condition_variable cv;
    int64_t acks = 0;
  };

  std::shared_ptr<const SesAutomaton> automaton;
  int attribute = 0;
  ParallelOptions options;
  /// True when a sink is installed: workers seal per-batch runs and the
  /// ingest thread emits below the safety watermark.
  bool incremental = false;

  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<Event>> pending;  // per-shard ingest buffers
  /// fed[i]: shard i has been routed at least one event (ingest-owned).
  /// Unfed shards are excluded from the safety-watermark minimum — they
  /// can only ever contribute matches newer than the global watermark.
  std::vector<bool> fed;

  int64_t barrier_epoch = 0;

  int64_t events_ingested = 0;
  int64_t batches_enqueued = 0;
  int64_t max_queue_depth = 0;
  ParallelStats last_stats;

  // ---- Incremental emission state (ingest-owned unless noted) ----------
  /// Sorted leftover runs below which nothing was safely emittable yet;
  /// compacted to at most one run after every emission round.
  std::vector<std::vector<Match>> merge_runs;
  int64_t next_emit_at = 0;
  /// Matches resident in sealed shard runs + the ingest merger. Workers
  /// increment on sealing, the ingest thread decrements on emission.
  AtomicCounter buffered_matches;
  AtomicMaxGauge max_buffered;

  ~Impl() {
    if (shards.empty()) return;
    // Close (not kStop) so shutdown cannot deadlock: Close wakes a worker
    // blocked in Pop AND an ingest thread blocked in Push/PushAll on a full
    // queue; workers drain what is queued, then exit on nullopt.
    for (auto& shard : shards) {
      shard->queue.Close();
    }
    for (auto& shard : shards) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }

  void Start() {
    for (auto& shard : shards) {
      Shard* s = shard.get();
      s->worker = std::thread([this, s] { WorkerLoop(*s); });
    }
  }

  // ---- Worker side -------------------------------------------------------

  void WorkerLoop(Shard& shard) {
    while (true) {
      std::optional<EventBatch> popped = shard.queue.Pop();
      if (!popped.has_value()) return;  // queue closed and drained
      EventBatch& batch = *popped;
      switch (batch.kind) {
        case EventBatch::Kind::kEvents: {
          Stopwatch busy_watch;
          ProcessBatch(shard, batch);
          shard.busy_nanos += busy_watch.ElapsedNanos();
          break;
        }
        case EventBatch::Kind::kFlush:
          FlushShard(shard);
          Acknowledge(shard);
          break;
        case EventBatch::Kind::kSync:
          // Quiesce only: every batch queued before this one has been
          // processed, and the acknowledgement's happens-before lets the
          // ingest thread read (or rewrite) worker-owned state until its
          // next queue Push.
          Acknowledge(shard);
          break;
        case EventBatch::Kind::kReset:
          shard.matcher.Reset();
          shard.matches.clear();
          {
            std::lock_guard<std::mutex> lock(shard.runs_mu);
            shard.sealed_runs.clear();
          }
          shard.published.store(kNoWatermark, std::memory_order_release);
          shard.busy_nanos = 0;
          Acknowledge(shard);
          break;
        case EventBatch::Kind::kStop:
          return;
      }
    }
  }

  void ProcessBatch(Shard& shard, const EventBatch& batch) {
    for (const Event& event : batch.events) {
      shard.matcher.Consume(event, &shard.matches);
    }
    // The batch's newest timestamp is the shard's clock: no later batch of
    // this shard holds an older event.
    shard.matcher.EvictIdle(batch.watermark, &shard.matches);
    if (incremental) {
      // Seal this batch's expired matches as one sorted run, then publish
      // the progress watermark (release pairs with the ingest thread's
      // acquire: whoever sees the watermark sees the run).
      if (!shard.matches.empty()) {
        SortMatches(&shard.matches);
        buffered_matches.Increment(
            static_cast<int64_t>(shard.matches.size()));
        max_buffered.Observe(buffered_matches.value());
        std::lock_guard<std::mutex> lock(shard.runs_mu);
        shard.sealed_runs.push_back(std::move(shard.matches));
        shard.matches = {};
      }
      shard.published.store(batch.watermark, std::memory_order_release);
    }
  }

  void FlushShard(Shard& shard) {
    shard.matcher.Flush(&shard.matches);
    // Pre-sort this shard's run while the other shards do the same, so the
    // ingest thread's merge is a cheap k-way merge of sorted runs instead
    // of a full sort of the union.
    SortMatches(&shard.matches);
  }

  void Acknowledge(Shard& shard) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.acks;
    shard.cv.notify_all();
  }

  // ---- Ingest side -------------------------------------------------------

  /// Routes the event into the pending buffer of its shard,
  /// PartitionKeyHash(key) % num_shards, and returns that shard's index.
  size_t Route(const Event& event) {
    ++events_ingested;
    size_t index = PartitionKeyHash{}(event.value(attribute)) % shards.size();
    pending[index].push_back(event);
    fed[index] = true;
    return index;
  }

  void Ingest(const Event& event) {
    size_t shard_index = Route(event);
    if (pending[shard_index].size() >= options.batch_size) {
      FlushPendingSlab(shard_index, /*all=*/false);
    }
    MaybeEmitIncremental();
  }

  void IngestBatch(std::span<const Event> events) {
    // One routing pass groups the span into per-shard slabs (the pending
    // buffers), then each shard receives all its full batches in a single
    // queue synchronization.
    size_t slab_threshold = options.batch_size * 8;
    for (const Event& event : events) {
      size_t shard_index = Route(event);
      // Bound pending growth on very large spans: ship a slab as soon as
      // one shard has several batches' worth buffered.
      if (pending[shard_index].size() >= slab_threshold) {
        FlushPendingSlab(shard_index, /*all=*/false);
      }
      // Keep the emission cadence inside the span too — a single huge
      // PushBatch must not defer every sealed match to the flush barrier.
      MaybeEmitIncremental();
    }
    for (size_t i = 0; i < shards.size(); ++i) {
      FlushPendingSlab(i, /*all=*/false);
    }
    MaybeEmitIncremental();
  }

  void IngestColumnar(const ColumnarBatch& batch,
                      const uint64_t* pass_bitmap) {
    const size_t n = batch.size();
    const size_t slab_threshold = options.batch_size * 8;
    const bool string_key =
        batch.schema().attribute(attribute).type == ValueType::kString;
    // Hash each distinct STRING key once per batch instead of once per
    // row; INT64 keys hash straight off the flat column. Both hash as
    // PartitionKeyHash does, so a key routes the same on every path.
    const ColumnarBatch::StringColumn* string_keys = nullptr;
    const int64_t* int_keys = nullptr;
    std::vector<size_t> code_hash;
    if (string_key) {
      string_keys = &batch.string_column(attribute);
      code_hash.reserve(string_keys->dict.size());
      for (const std::string& value : string_keys->dict) {
        code_hash.push_back(std::hash<std::string>{}(value));
      }
    } else {
      int_keys = batch.int64_column(attribute).data();
    }
    for (size_t row = 0; row < n; ++row) {
      if (pass_bitmap != nullptr &&
          ((pass_bitmap[row >> 6] >> (row & 63)) & 1) == 0) {
        continue;
      }
      ++events_ingested;
      const size_t hash = string_key
                              ? code_hash[string_keys->codes[row]]
                              : std::hash<int64_t>{}(int_keys[row]);
      const size_t index = hash % shards.size();
      pending[index].push_back(batch.RowEvent(row));
      fed[index] = true;
      if (pending[index].size() >= slab_threshold) {
        FlushPendingSlab(index, /*all=*/false);
      }
      MaybeEmitIncremental();
    }
    for (size_t i = 0; i < shards.size(); ++i) {
      FlushPendingSlab(i, /*all=*/false);
    }
    MaybeEmitIncremental();
  }

  /// Every emit_interval_events ingested events (sink mode only): collect
  /// the workers' sealed runs and emit everything below the safety
  /// watermark.
  void MaybeEmitIncremental() {
    if (!incremental || events_ingested < next_emit_at) return;
    next_emit_at = events_ingested + options.emit_interval_events;
    EmitBelowWatermark();
  }

  /// Drains every shard's sealed runs into the ingest-side merger, computes
  /// the safety threshold T = min(published progress over fed shards) − τe
  /// − τ, and delivers every merged match with start < T to the sink. No
  /// match sealed later can sort before an emitted one: a shard at progress
  /// p only holds pending instances with start > p − τe − τ (older
  /// partitions were evicted and their matches sealed), so everything it
  /// seals later starts at or above T (see docs/SEMANTICS.md §8).
  void EmitBelowWatermark() {
    bool any_fed = false;
    Timestamp min_published = std::numeric_limits<Timestamp>::max();
    for (size_t i = 0; i < shards.size(); ++i) {
      Shard& shard = *shards[i];
      // Acquire pairs with the worker's release store: observing the
      // watermark guarantees the runs sealed at or below it are visible.
      Timestamp published = shard.published.load(std::memory_order_acquire);
      {
        std::lock_guard<std::mutex> lock(shard.runs_mu);
        for (auto& run : shard.sealed_runs) {
          if (!run.empty()) merge_runs.push_back(std::move(run));
        }
        shard.sealed_runs.clear();
      }
      if (!fed[i]) continue;  // can only contribute matches newer than T
      any_fed = true;
      if (published == kNoWatermark) {
        // A fed shard that has not processed anything yet pins the
        // threshold: nothing is provably safe.
        min_published = kNoWatermark;
      }
      min_published = std::min(min_published, published);
    }
    if (!any_fed || min_published == kNoWatermark || merge_runs.empty()) {
      return;
    }
    // τe = τ: eviction and the window each account for one τ.
    const Timestamp threshold = min_published - 2 * automaton->window();
    std::vector<Match> merged = MergeSortedRuns(std::move(merge_runs));
    merge_runs.clear();
    auto split = std::partition_point(
        merged.begin(), merged.end(),
        [&](const Match& m) { return m.start_time() < threshold; });
    int64_t emitted = static_cast<int64_t>(split - merged.begin());
    if (emitted == 0) {
      merge_runs.push_back(std::move(merged));
      return;
    }
    for (auto it = merged.begin(); it != split; ++it) {
      options.sink(std::move(*it));
    }
    buffered_matches.Increment(-emitted);
    if (split != merged.end()) {
      merged.erase(merged.begin(), split);
      merge_runs.push_back(std::move(merged));
    }
  }

  /// Cuts the shard's pending buffer into batch_size-bounded EventBatches
  /// and enqueues them as one slab (single synchronization round via
  /// BatchQueue::PushAll). Keeps a sub-batch_size remainder buffered
  /// unless `all` is set (barriers must ship everything).
  void FlushPendingSlab(size_t shard_index, bool all) {
    std::vector<Event>& buffer = pending[shard_index];
    if (buffer.empty()) return;
    std::vector<EventBatch> slab;
    size_t pos = 0;
    while (buffer.size() - pos >= options.batch_size ||
           (all && pos < buffer.size())) {
      size_t count = std::min(options.batch_size, buffer.size() - pos);
      EventBatch batch;
      batch.kind = EventBatch::Kind::kEvents;
      batch.events.assign(
          std::make_move_iterator(buffer.begin() + static_cast<long>(pos)),
          std::make_move_iterator(buffer.begin() +
                                  static_cast<long>(pos + count)));
      // Stamp the batch's own newest event, NOT the global ingest
      // watermark: later batches of the same slab hold older events than
      // the global high-water mark, and the eviction sweep may only assume
      // idleness relative to what this shard has actually processed.
      batch.watermark = batch.events.back().timestamp();
      slab.push_back(std::move(batch));
      pos += count;
    }
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(pos));
    if (slab.empty()) return;
    Shard& shard = *shards[shard_index];
    batches_enqueued += static_cast<int64_t>(slab.size());
    shard.queue.PushAll(std::move(slab));
    max_queue_depth = std::max(
        max_queue_depth, static_cast<int64_t>(shard.queue.depth()));
  }

  /// Enqueues a control batch to every shard and waits until all of them
  /// acknowledge it. Pending event buffers are flushed first so the control
  /// batch observes the full stream.
  void Barrier(EventBatch::Kind kind) {
    for (size_t i = 0; i < shards.size(); ++i) {
      if (kind == EventBatch::Kind::kReset) {
        pending[i].clear();
      } else {
        // kFlush and kSync must observe the full stream.
        FlushPendingSlab(i, /*all=*/true);
      }
    }
    ++barrier_epoch;
    for (auto& shard : shards) {
      shard->queue.Push(EventBatch{kind, {}, {}});
    }
    for (auto& shard : shards) {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv.wait(lock, [&] { return shard->acks >= barrier_epoch; });
    }
  }

  void Flush(std::vector<Match>* out) {
    Barrier(EventBatch::Kind::kFlush);

    // Deterministic merge: every run arrives pre-sorted in canonical
    // MatchOrderLess order (the workers sort during the barrier, in
    // parallel), so a merge tree yields the full canonical order — the
    // emitted sequence is independent of shard count and worker
    // scheduling, byte-identical to sorted serial output. Two distinct
    // matches never compare equal across shards (partitions are disjoint),
    // so the order is total on the actual data. In sink mode the leftover
    // sealed runs and the ingest-side remainder join the merge; everything
    // remaining sorts after the matches already emitted incrementally
    // (they all start at or above the last emission threshold).
    std::vector<std::vector<Match>> runs = std::move(merge_runs);
    merge_runs.clear();
    for (auto& shard : shards) {
      {
        std::lock_guard<std::mutex> lock(shard->runs_mu);
        for (auto& run : shard->sealed_runs) {
          if (!run.empty()) runs.push_back(std::move(run));
        }
        shard->sealed_runs.clear();
      }
      if (!shard->matches.empty()) {
        runs.push_back(std::move(shard->matches));
      }
      shard->matches = {};
    }
    std::vector<Match> merged = MergeSortedRuns(std::move(runs));
    if (options.sink != nullptr) {
      for (Match& match : merged) {
        options.sink(std::move(match));
      }
    } else if (!merged.empty()) {
      out->insert(out->end(), std::make_move_iterator(merged.begin()),
                  std::make_move_iterator(merged.end()));
    }
    buffered_matches.Reset();

    last_stats = ParallelStats{};
    last_stats.events_ingested = events_ingested;
    last_stats.batches_enqueued = batches_enqueued;
    last_stats.max_queue_depth = max_queue_depth;
    last_stats.max_buffered_matches = max_buffered.max();
    for (auto& shard : shards) {
      const PartitionedStats& keys = shard->matcher.stats();
      last_stats.partitions_created += keys.partitions_created;
      last_stats.partitions_evicted += keys.partitions_evicted;
      last_stats.shards.push_back(ShardStats{keys.partitions_created,
                                             keys.partitions_evicted,
                                             shard->busy_nanos});
    }
  }

  void ResetAll() {
    Barrier(EventBatch::Kind::kReset);
    events_ingested = 0;
    batches_enqueued = 0;
    max_queue_depth = 0;
    merge_runs.clear();
    next_emit_at = 0;
    buffered_matches.Reset();
    max_buffered.Reset();
    std::fill(fed.begin(), fed.end(), false);
    last_stats = ParallelStats{};
  }

  // ---- Checkpoint / restore ---------------------------------------------

  /// Serializes the complete runtime state after a kSync barrier. Sealed
  /// runs are drained into the ingest-side merger first — behavior-
  /// preserving, it only moves work the next emission round would have
  /// done anyway — so every match has exactly one home in the payload.
  void CheckpointAll(std::string* out) {
    Barrier(EventBatch::Kind::kSync);
    for (auto& shard : shards) {
      std::lock_guard<std::mutex> lock(shard->runs_mu);
      for (auto& run : shard->sealed_runs) {
        if (!run.empty()) merge_runs.push_back(std::move(run));
      }
      shard->sealed_runs.clear();
    }
    const Schema& schema = automaton->pattern().schema();
    storage::PutSigned(out, events_ingested);
    storage::PutSigned(out, batches_enqueued);
    storage::PutSigned(out, max_queue_depth);
    storage::PutSigned(out, next_emit_at);
    storage::PutSigned(out, buffered_matches.value());
    storage::PutSigned(out, max_buffered.max());
    storage::PutCount(out, fed.size());
    for (bool shard_fed : fed) storage::PutBool(out, shard_fed);
    storage::PutCount(out, merge_runs.size());
    for (const std::vector<Match>& run : merge_runs) {
      storage::PutCount(out, run.size());
      for (const Match& match : run) CheckpointMatch(match, schema, out);
    }
    storage::PutCount(out, shards.size());
    for (auto& shard : shards) {
      storage::PutSigned(
          out, shard->published.load(std::memory_order_acquire));
      shard->matcher.Checkpoint(out);
      storage::PutCount(out, shard->matches.size());
      for (const Match& match : shard->matches) {
        CheckpointMatch(match, schema, out);
      }
      storage::PutSigned(out, shard->busy_nanos);
    }
  }

  /// Rebuilds the runtime from a CheckpointAll payload. Worker-owned state
  /// is rewritten from the ingest thread inside the safe window between the
  /// kReset acknowledgement (from ResetAll) and the next queue Push.
  Status RestoreAll(const char** p, const char* limit) {
    ResetAll();
    Status s = [&]() -> Status {
      const Schema& schema = automaton->pattern().schema();
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &events_ingested));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &batches_enqueued));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &max_queue_depth));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &next_emit_at));
      int64_t buffered = 0;
      int64_t max_buffered_seen = 0;
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &buffered));
      SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &max_buffered_seen));
      buffered_matches.Increment(buffered);
      max_buffered.Observe(max_buffered_seen);
      uint64_t fed_count = 0;
      SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &fed_count));
      if (fed_count != fed.size()) {
        return Status::Corruption(
            "checkpoint shard count does not match this runtime");
      }
      for (size_t i = 0; i < fed.size(); ++i) {
        bool shard_fed = false;
        SES_RETURN_IF_ERROR(storage::GetBool(p, limit, &shard_fed));
        fed[i] = shard_fed;
      }
      uint64_t num_runs = 0;
      SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &num_runs));
      for (uint64_t i = 0; i < num_runs; ++i) {
        uint64_t run_size = 0;
        SES_RETURN_IF_ERROR(storage::GetItemCount(p, limit, &run_size));
        std::vector<Match> run;
        run.reserve(run_size);
        for (uint64_t j = 0; j < run_size; ++j) {
          Match match;
          SES_RETURN_IF_ERROR(RestoreMatch(p, limit, schema, &match));
          run.push_back(std::move(match));
        }
        merge_runs.push_back(std::move(run));
      }
      uint64_t shard_count = 0;
      SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &shard_count));
      if (shard_count != shards.size()) {
        return Status::Corruption(
            "checkpoint shard count does not match this runtime");
      }
      for (auto& shard : shards) {
        int64_t published = 0;
        SES_RETURN_IF_ERROR(storage::GetSigned(p, limit, &published));
        shard->published.store(published, std::memory_order_release);
        SES_RETURN_IF_ERROR(shard->matcher.Restore(p, limit));
        uint64_t num_matches = 0;
        SES_RETURN_IF_ERROR(storage::GetItemCount(p, limit, &num_matches));
        shard->matches.reserve(num_matches);
        for (uint64_t i = 0; i < num_matches; ++i) {
          Match match;
          SES_RETURN_IF_ERROR(RestoreMatch(p, limit, schema, &match));
          shard->matches.push_back(std::move(match));
        }
        SES_RETURN_IF_ERROR(
            storage::GetSigned(p, limit, &shard->busy_nanos));
      }
      return Status::OK();
    }();
    if (!s.ok()) ResetAll();
    return s;
  }
};

Result<ParallelPartitionedMatcher> ParallelPartitionedMatcher::Create(
    const Pattern& pattern, int attribute, ParallelOptions options) {
  return Create(CompileAutomaton(pattern), attribute, std::move(options));
}

Result<ParallelPartitionedMatcher> ParallelPartitionedMatcher::Create(
    std::shared_ptr<const SesAutomaton> automaton, int attribute,
    ParallelOptions options) {
  options.num_shards = std::max(options.num_shards, 1);
  options.batch_size = std::max<size_t>(options.batch_size, 1);
  options.emit_interval_events =
      std::max<int64_t>(options.emit_interval_events, 1);
  auto impl = std::make_unique<Impl>();
  impl->shards.reserve(static_cast<size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    // Validates `attribute` (range, not DOUBLE) on the first shard.
    SES_ASSIGN_OR_RETURN(PartitionedMatcher matcher,
                         PartitionedMatcher::Create(automaton, attribute,
                                                    options.matcher));
    impl->shards.push_back(std::make_unique<Impl::Shard>(
        options.queue_capacity, std::move(matcher)));
  }
  impl->automaton = std::move(automaton);
  impl->attribute = attribute;
  impl->options = std::move(options);
  impl->incremental = impl->options.sink != nullptr;
  impl->pending.resize(impl->shards.size());
  impl->fed.assign(impl->shards.size(), false);
  impl->Start();
  return ParallelPartitionedMatcher(std::move(impl));
}

ParallelPartitionedMatcher::ParallelPartitionedMatcher(
    std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ParallelPartitionedMatcher::~ParallelPartitionedMatcher() = default;
ParallelPartitionedMatcher::ParallelPartitionedMatcher(
    ParallelPartitionedMatcher&&) noexcept = default;
ParallelPartitionedMatcher& ParallelPartitionedMatcher::operator=(
    ParallelPartitionedMatcher&&) noexcept = default;

void ParallelPartitionedMatcher::Push(const Event& event) {
  impl_->Ingest(event);
}

void ParallelPartitionedMatcher::PushBatch(std::span<const Event> events) {
  impl_->IngestBatch(events);
}

void ParallelPartitionedMatcher::PushColumnar(const ColumnarBatch& batch,
                                              const uint64_t* pass_bitmap) {
  impl_->IngestColumnar(batch, pass_bitmap);
}

Status ParallelPartitionedMatcher::RunRelation(const EventRelation& relation) {
  SES_RETURN_IF_ERROR(relation.ValidateTotalOrder());
  std::span<const Event> events(relation.events());
  // Chunk so workers drain earlier slabs while later ones are still being
  // routed; a few batches per shard per chunk keeps the pipeline full
  // without unbounded pending buffers.
  size_t chunk =
      std::max<size_t>(impl_->options.batch_size * impl_->shards.size() * 4,
                       impl_->options.batch_size);
  for (size_t pos = 0; pos < events.size(); pos += chunk) {
    impl_->IngestBatch(
        events.subspan(pos, std::min(chunk, events.size() - pos)));
  }
  return Status::OK();
}

void ParallelPartitionedMatcher::Flush(std::vector<Match>* out) {
  impl_->Flush(out);
}

void ParallelPartitionedMatcher::Reset() { impl_->ResetAll(); }

void ParallelPartitionedMatcher::Checkpoint(std::string* out) {
  impl_->CheckpointAll(out);
}

Status ParallelPartitionedMatcher::Restore(const char** p, const char* limit) {
  return impl_->RestoreAll(p, limit);
}

const ParallelStats& ParallelPartitionedMatcher::stats() const {
  return impl_->last_stats;
}

const SesAutomaton& ParallelPartitionedMatcher::automaton() const {
  return *impl_->automaton;
}

int ParallelPartitionedMatcher::num_shards() const {
  return static_cast<int>(impl_->shards.size());
}

Result<std::vector<Match>> ParallelPartitionedMatchRelation(
    const Pattern& pattern, const EventRelation& relation, int attribute,
    ParallelOptions options, ParallelStats* stats) {
  if (attribute < 0) {
    SES_ASSIGN_OR_RETURN(attribute, FindPartitionAttribute(pattern));
  }
  SES_ASSIGN_OR_RETURN(
      ParallelPartitionedMatcher matcher,
      ParallelPartitionedMatcher::Create(pattern, attribute, options));
  SES_RETURN_IF_ERROR(matcher.RunRelation(relation));
  std::vector<Match> matches;
  matcher.Flush(&matches);
  if (stats != nullptr) *stats = matcher.stats();
  return matches;
}

}  // namespace ses::exec
