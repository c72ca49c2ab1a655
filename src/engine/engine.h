#ifndef SES_ENGINE_ENGINE_H_
#define SES_ENGINE_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "core/match.h"
#include "core/stream_stage.h"
#include "event/columnar.h"
#include "plan/compiled_plan.h"
#include "storage/checkpoint.h"

namespace ses::engine {

/// Runtime knobs of an engine instance, fixed at creation. The plan-level
/// choice (the §4.5 pre-filter) lives in plan::PlanOptions instead — the
/// same plan runs under any engine options. Fields that a given engine
/// does not use are ignored: the serial and partitioned engines read
/// `sink` and the two checkpoint fields, the parallel engine reads
/// everything.
struct EngineOptions {
  /// Streaming match consumer; required (CreateEngine rejects a null sink).
  /// Runs on the thread that drives the engine and must not re-enter it.
  /// Use CollectInto for the common collect-to-vector case.
  MatchSink sink;
  /// Worker shards of the parallel engine.
  int num_shards = 4;
  /// Events per worker batch (parallel engine).
  size_t batch_size = 256;
  /// Per-shard queue capacity, in batches (parallel engine).
  size_t queue_capacity = 64;
  /// How often (in ingested events) the parallel engine emits matches below
  /// the safety watermark. See exec::ParallelOptions::emit_interval_events.
  int64_t emit_interval_events = 4096;
  /// Periodic checkpointing (every engine): after every
  /// `checkpoint_interval_events` pushed events the engine serializes its
  /// full runtime state with Checkpoint() and hands the writer to
  /// `checkpoint_sink`, which may add embedder sections (e.g. the CLI's
  /// output cursor) before sealing and persisting the bytes. 0 (the
  /// default) disables periodic checkpoints; explicit Checkpoint() calls
  /// work either way. Checkpointing is transparent: it never changes the
  /// match sequence or the statistics of the run.
  int64_t checkpoint_interval_events = 0;
  /// Receives the filled writer at each periodic checkpoint. Runs on the
  /// thread that drives the engine; a non-OK status aborts the triggering
  /// Push. Required when checkpoint_interval_events > 0.
  std::function<Status(storage::CheckpointWriter&)> checkpoint_sink;
};

/// Engine-agnostic statistics snapshot. Counters an engine cannot measure
/// are zero.
struct EngineStats {
  int64_t events_pushed = 0;
  /// Matches delivered to the sink so far (incremental + Flush).
  int64_t matches_emitted = 0;
  /// Matches delivered before the Flush barrier (parallel engine's
  /// watermark-bounded incremental emission; serial-style engines deliver
  /// on every Push, which also counts as early).
  int64_t matches_emitted_early = 0;
  /// Peak number of completed-but-undelivered matches resident in the
  /// engine — the buffer that incremental emission bounds.
  int64_t max_buffered_matches = 0;
  /// Resident partitions (partitioned engine; cumulative created for the
  /// parallel engine, whose resident set lives on the worker shards).
  int64_t num_partitions = 0;
  /// Events the plan's §4.5 pre-filter dropped in the stream stage, before
  /// any evaluator saw them: the same count on every engine and on both
  /// ingest layouts.
  int64_t events_filtered = 0;
  /// Automaton instances created / reclaimed across all executors (the
  /// paper's Experiments 1–2 currency; zero for the parallel engine, whose
  /// shards do not export executor internals).
  int64_t instances_created = 0;
  int64_t instances_pruned = 0;
  /// Peak simultaneously active instances (summed across partitions for
  /// the partitioned engine).
  int64_t max_simultaneous_instances = 0;
  /// Partitions reclaimed by idle eviction (partition-pure engines).
  int64_t partitions_evicted = 0;
  /// Parallel engine only: peak shard queue depth and batches enqueued to
  /// worker shards.
  int64_t max_queue_depth = 0;
  int64_t batches_enqueued = 0;
};

/// Name → value snapshot of every EngineStats counter, in declaration
/// order. The benchmark harness folds this into its machine-readable case
/// records (see bench/harness.h), so counter names are part of the
/// BENCH_*.json schema — extend, don't rename.
std::vector<std::pair<std::string, int64_t>> EngineCounters(
    const EngineStats& stats);

/// A streaming SES evaluator behind a uniform push/flush interface. All
/// three evaluation strategies of this repository — the global serial
/// automaton, serial partitioned execution, and the sharded parallel
/// runtime — implement this interface, are constructed from the same
/// immutable plan::CompiledPlan, and deliver matches through the same
/// MatchSink, so harnesses, benchmarks and the CLI can treat "which engine"
/// as a run-time string (see engine/registry.h).
///
/// Contract: the StreamStage one (docs/SEMANTICS.md §9), which the catalog
/// shares. Push events with strictly increasing timestamps; a timestamp at
/// or below the newest one admitted returns InvalidArgument, is not
/// counted, reaches no evaluator, and the stream may continue. Call
/// Flush() once at end-of-stream (pending matches are delivered to the
/// sink); after Flush, Push returns FailedPrecondition until Reset()
/// returns the engine to its initial state for a new stream. WHEN matches
/// reach the sink is engine-specific — the only guarantee is that after
/// Flush() the sink has received exactly the pattern's match set
/// (canonical SES semantics, Definition 2 + skip-till-next-match). Engines
/// are not thread-safe; drive each instance from one thread.
///
/// Structure: the public entry points are non-virtual and run the stream
/// stage (the order check, the Flush state, events_pushed, the plan's §4.5
/// pre-filter) and the periodic checkpoint; engines implement the protected
/// *Ordered/*Impl hooks, which receive a strictly increasing stream by
/// construction, with the filter's verdict on each event.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry name of this engine ("serial", "parallel", ...).
  virtual std::string_view name() const = 0;

  /// Offers the next event. Returns InvalidArgument when the timestamp is
  /// not after every admitted one and FailedPrecondition after Flush().
  Status Push(const Event& event);

  /// Pushes a span of events under the same contract, forwarded to the
  /// engine without copying. The in-order prefix is evaluated, and the
  /// first backwards event fails the call.
  Status PushBatch(std::span<const Event> events);

  /// Columnar ingest: pushes every row of `batch` (same stream contract as
  /// PushBatch) without materializing row-wise Events. The batch's schema
  /// must be the plan's schema. The base class checks the order on the
  /// timestamp column and evaluates the plan's §4.5 pre-filter per column
  /// (EventPreFilter::ShouldProcessColumnar); rows it drops are never
  /// materialized, routed, or offered to an automaton, and only advance the
  /// evaluator's clock, as on the row path. A backwards row fails the call
  /// after the rows before it are evaluated, as in PushBatch. The delivered
  /// match set, its delivery points and the stats are identical to
  /// PushBatch's (docs/SEMANTICS.md §11).
  Status PushColumnar(const ColumnarBatch& batch);

  /// End-of-stream barrier: delivers every remaining match to the sink and
  /// snapshots stats(). The engine stays usable for stats reads; Reset()
  /// before pushing a new stream.
  Status Flush();

  /// Drops all execution state (instances, partitions, the stream's
  /// watermark, statistics). The compiled plan is retained — resets are
  /// cheap.
  void Reset();

  /// Statistics snapshot; events_pushed is the stream stage's count of
  /// admitted events.
  EngineStats stats() const;

  /// Serializes the engine's complete runtime state into `writer` as two
  /// sections: "engine" (the engine's registry name, the stream stage and
  /// the filter's drop count) and "state" (the evaluator: open automaton
  /// instances with their match buffers, partitions, shard state,
  /// statistics). Call between events, not from inside a sink. The engine
  /// keeps running; a Restore()d engine continues the stream with a
  /// byte-identical match sequence and statistics (docs/SEMANTICS.md §12).
  Status Checkpoint(storage::CheckpointWriter* writer);

  /// Restores state written by Checkpoint() of an engine with the same
  /// registry name, plan, and configuration. Returns InvalidArgument when
  /// the checkpoint was written by a different engine, Corruption for
  /// malformed payloads. On error the engine is left Reset().
  Status Restore(const storage::CheckpointReader& reader);

  /// The immutable plan this engine executes.
  const plan::CompiledPlan& plan() const { return *plan_; }

 protected:
  Engine(std::shared_ptr<const plan::CompiledPlan> plan,
         EngineOptions options);

  /// Evaluator hooks. The base class guarantees the events arriving here
  /// form one strictly increasing timestamp sequence per stream — the one
  /// order check of every engine path — and has applied the plan's §4.5
  /// filter once to each of them, so the evaluators behind them check
  /// nothing, filter nothing and cannot fail.
  ///
  /// Steps one event the filter passed.
  virtual void PushOrdered(const Event& event) = 0;
  /// The clock hook: the filter dropped an event at `now`. The evaluator
  /// cannot bind it but may expire what `now` has outrun. Called once per
  /// dropped event, so no counter depends on how events are batched into
  /// calls. The default does nothing.
  virtual void AdvanceOrdered(Timestamp now);
  /// `pass` is the §4.5 pass-bitmap over `events` (bit i of word i/64 =
  /// event i passed), or nullptr when every event passes (filter disabled
  /// or inactive). The default walks the events in stream order: a passing
  /// one goes to PushOrdered, a dropped one to AdvanceOrdered. The
  /// parallel engine overrides it with genuinely batched ingest.
  virtual void PushBatchOrdered(std::span<const Event> events,
                                const uint64_t* pass);
  /// Columnar hook, `pass` as above over the rows. The default walks the
  /// rows like PushBatchOrdered and materializes only the passing ones;
  /// the parallel engine overrides it to route straight off the columns.
  virtual void PushColumnarOrdered(const ColumnarBatch& batch,
                                   const uint64_t* pass);
  virtual void FlushImpl() = 0;
  virtual void ResetImpl() = 0;
  virtual EngineStats StatsImpl() const = 0;

  /// Serializes the evaluator's state (the "state" section payload) with
  /// the checkpoint payload primitives. May quiesce worker threads.
  virtual void CheckpointImpl(std::string* out) = 0;
  /// Restores what CheckpointImpl wrote. Runs on a freshly Reset()
  /// evaluator; must consume the payload exactly.
  virtual Status RestoreImpl(const char** p, const char* limit) = 0;

  std::shared_ptr<const plan::CompiledPlan> plan_;
  EngineOptions options_;

 private:
  /// Fires a periodic checkpoint when the event counter has crossed the
  /// next interval boundary (no-op when disabled).
  Status MaybeCheckpoint();

  /// The stage's §4.5 filter, one call site per layout: evaluates the
  /// plan's filter over admitted events (rows) or columns into
  /// pass_words_, counts the drops, and returns the bitmap for the hooks —
  /// nullptr, with no per-event work, when the plan has no active filter.
  const uint64_t* FilterRows(std::span<const Event> events);
  const uint64_t* FilterColumns(const ColumnarBatch& batch);

  /// Runs admitted, in-order rows through the filter and the engine's
  /// columnar hook.
  void EvaluateColumnar(const ColumnarBatch& batch);

  /// The stream contract: Flush state, order check, admitted count.
  StreamStage stream_;
  /// The plan's filter when it is active, else null.
  const EventPreFilter* filter_ = nullptr;
  /// Event count at which the next periodic checkpoint fires (disabled
  /// when checkpoint_interval_events is 0).
  int64_t next_checkpoint_at_ = 0;
  /// Admitted events the filter dropped (EngineStats::events_filtered).
  int64_t events_filtered_ = 0;
  /// Pass-bitmap scratch of FilterRows/FilterColumns, reused across calls.
  std::vector<uint64_t> pass_words_;
};

/// A sink that appends every match to `*out` (not owned; must outlive the
/// engine's last Push/Flush). The common harness/test configuration.
MatchSink CollectInto(std::vector<Match>* out);

/// Factory functions behind the engine table (engine/registry.h). All
/// validate that `options.sink` is set; the partition-pure engines
/// additionally require plan->has_partition_attribute().

/// "serial": one global SesExecutor over the shared automaton, with no
/// filter of its own; a dropped event advances its clock (AdvanceTo).
/// Matches reach the sink as their window expires (on Push) and at Flush.
Result<std::unique_ptr<Engine>> CreateSerialEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

/// "partitioned": serial partition-pure execution (core::PartitionedMatcher,
/// one filter-free executor per key, all sharing the plan's automaton; idle
/// keys are evicted after every event, dropped ones included, and a dropped
/// event touches no partition, docs/SEMANTICS.md §6).
Result<std::unique_ptr<Engine>> CreatePartitionedEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

/// "parallel": the sharded runtime (exec::ParallelPartitionedMatcher) with
/// the sink wired through for incremental watermark-bounded emission; only
/// the events the stage's filter passes are routed and queued.
Result<std::unique_ptr<Engine>> CreateParallelEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

}  // namespace ses::engine

#endif  // SES_ENGINE_ENGINE_H_
