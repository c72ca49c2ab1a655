#ifndef SES_ENGINE_ENGINE_H_
#define SES_ENGINE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "core/match.h"
#include "event/columnar.h"
#include "exec/rebalancer.h"
#include "exec/reorder_buffer.h"
#include "plan/compiled_plan.h"
#include "storage/checkpoint.h"

namespace ses::engine {

/// Runtime knobs of an engine instance, fixed at creation. Plan-level
/// choices (pre-filter, shared constant evaluation, partition attribute)
/// live in plan::PlanOptions instead — the same plan runs under any engine
/// options. Fields that a given engine does not use are ignored: the
/// serial engine reads only `sink`, the parallel engine reads everything.
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
  /// Idle-partition eviction threshold τe of the parallel engine; 0 means
  /// "evict as soon as provably safe", negative disables eviction (and with
  /// it incremental emission). See exec::ParallelOptions::idle_timeout.
  Duration idle_timeout = 0;
  /// How often (in ingested events) the parallel engine emits matches below
  /// the safety watermark. See exec::ParallelOptions::emit_interval_events.
  int64_t emit_interval_events = 4096;
  /// Adaptive shard rebalancing (parallel engine; off by default).
  exec::RebalanceOptions rebalance;
  /// Bounded-lateness ingest (every engine): events may arrive up to this
  /// many ticks behind the newest timestamp seen and are re-sequenced by
  /// an exec::ReorderBuffer stage before they reach the evaluator. 0 (the
  /// default) requires in-order input: a backwards timestamp is an
  /// InvalidArgument (or a counted drop, per `late_policy`). The stage
  /// delays delivery — and with it watermark advancement, window expiry,
  /// and incremental emission — by up to the bound.
  Duration lateness_bound = 0;
  /// What to do with events that violate `lateness_bound`.
  exec::LatePolicy late_policy = exec::LatePolicy::kReject;
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
  /// Resident partitions (partition-pure engines; cumulative created for
  /// the parallel engine, whose resident set fluctuates with eviction).
  int64_t num_partitions = 0;
  /// Events dropped by the §4.5 pre-filter before reaching any automaton
  /// (executor-side for the serial engines, ingest-side for parallel).
  int64_t events_filtered = 0;
  /// Automaton instances created / reclaimed across all executors (the
  /// paper's Experiments 1–2 currency; zero for the parallel engine, whose
  /// shards do not export executor internals).
  int64_t instances_created = 0;
  int64_t instances_pruned = 0;
  /// Peak simultaneously active instances (summed across partitions for
  /// the partitioned engine).
  int64_t max_simultaneous_instances = 0;
  /// Parallel engine only: partitions reclaimed by idle eviction, peak
  /// shard queue depth, and batches enqueued to worker shards.
  int64_t partitions_evicted = 0;
  int64_t max_queue_depth = 0;
  int64_t batches_enqueued = 0;
  /// Bounded-lateness ingest stage (any engine): events that arrived out
  /// of order and were re-sequenced, events that violated the bound
  /// (rejected or dropped per EngineOptions::late_policy), and the peak
  /// number of events held back in the reorder buffer.
  int64_t events_reordered = 0;
  int64_t events_late = 0;
  int64_t max_reorder_buffered = 0;
  /// Parallel engine only: what the adaptive shard rebalancer did (all
  /// zero when `EngineOptions::rebalance.enabled` is false).
  exec::RebalancerStats rebalancer;
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
/// Contract: Push events in event-time order — strictly increasing
/// timestamps when `EngineOptions::lateness_bound` is 0 (the default), or
/// at most `lateness_bound` ticks behind the newest timestamp seen when it
/// is positive (the base-class ingest stage re-sequences them before any
/// evaluator sees them). A violating timestamp returns InvalidArgument
/// under LatePolicy::kReject or is counted and dropped under kDrop; either
/// way engine state is not corrupted and the stream may continue. Call
/// Flush() once at end-of-stream (pending matches are delivered to the
/// sink); after Flush, Push returns FailedPrecondition until Reset()
/// returns the engine to its initial state for a new stream. WHEN matches
/// reach the sink is engine-specific — the only guarantee is that after
/// Flush() the sink has received exactly the pattern's match set
/// (canonical SES semantics, Definition 2 + skip-till-next-match). Engines
/// are not thread-safe; drive each instance from one thread.
///
/// Structure: the public entry points are non-virtual and implement the
/// shared ingest stage (ordering enforcement, bounded-lateness reordering,
/// the events_pushed/late/reordered counters); engines implement the
/// protected *Ordered/*Impl hooks, which receive a strictly increasing
/// stream by construction.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry name of this engine ("serial", "parallel", ...).
  virtual std::string_view name() const = 0;

  /// Offers the next event. Returns InvalidArgument when the timestamp
  /// violates the lateness bound (see the class contract) and
  /// FailedPrecondition after Flush().
  Status Push(const Event& event);

  /// Pushes a span of events; the span must continue the stream under the
  /// same lateness contract as Push. In-order spans with
  /// `lateness_bound == 0` are forwarded to the engine without copying.
  Status PushBatch(std::span<const Event> events);

  /// Columnar ingest: pushes every row of `batch` (same stream contract as
  /// PushBatch) without materializing row-wise Events on the fast path.
  /// The batch's schema must be the plan's schema. When the rows are in
  /// order and no reorder stage is engaged, the base class verifies the
  /// ordering directly on the timestamp column, evaluates the plan's
  /// vectorized §4.5 pre-filter (plan::CompiledPlan::
  /// shared_vector_prefilter) into a pass-bitmap, counts the dropped rows,
  /// and hands batch + bitmap to the engine hook; rows the bitmap drops
  /// are never materialized, routed, or offered to an automaton. Out-of-
  /// order rows (or an engaged reorder stage) fall back to the row-wise
  /// ingest logic, so the lateness contract is byte-for-byte the
  /// PushBatch one. The delivered match set is identical either way
  /// (docs/SEMANTICS.md §11).
  Status PushColumnar(const ColumnarBatch& batch);

  /// End-of-stream barrier: releases everything the reorder stage still
  /// holds, then delivers every remaining match to the sink and snapshots
  /// stats(). The engine stays usable for stats reads; Reset() before
  /// pushing a new stream.
  Status Flush();

  /// Drops all execution state (instances, partitions, watermarks,
  /// reorder buffer, statistics). The compiled plan is retained — resets
  /// are cheap.
  void Reset();

  /// Statistics snapshot; the ingest-stage counters (events_pushed,
  /// events_reordered, events_late, max_reorder_buffered) are maintained
  /// by the base class.
  EngineStats stats() const;

  /// Serializes the engine's complete runtime state into `writer` as two
  /// sections: "engine" (the shared ingest stage — ordering watermark,
  /// reorder-buffer tail, ingest counters, the engine's registry name) and
  /// "state" (the evaluator: open automaton instances with their match
  /// buffers, partitions, shard and rebalancer state, statistics). Call
  /// between events, not from inside a sink. The engine keeps running; a
  /// Restore()d engine continues the stream with a byte-identical match
  /// sequence and statistics (docs/SEMANTICS.md §12).
  Status Checkpoint(storage::CheckpointWriter* writer);

  /// Restores state written by Checkpoint() of an engine with the same
  /// registry name, plan, and configuration. Returns InvalidArgument when
  /// the checkpoint was written by a different engine or lateness
  /// configuration, Corruption for malformed payloads. On error the engine
  /// is left Reset().
  Status Restore(const storage::CheckpointReader& reader);

  /// The immutable plan this engine executes.
  const plan::CompiledPlan& plan() const { return *plan_; }

 protected:
  Engine(std::shared_ptr<const plan::CompiledPlan> plan,
         EngineOptions options);

  /// Evaluator hooks. The base class guarantees the events arriving here
  /// form one strictly increasing timestamp sequence per stream.
  virtual Status PushOrdered(const Event& event) = 0;
  /// Default loops over PushOrdered; the parallel engine overrides it with
  /// genuinely batched ingest.
  virtual Status PushBatchOrdered(std::span<const Event> events);
  /// Columnar hook: `pass` is the §4.5 pass-bitmap (bit r of word r/64 =
  /// row r must be processed), or nullptr when every row passes (filter
  /// disabled or inactive). The base class has already verified ordering
  /// and counted the filtered rows. The default materializes the passing
  /// rows and forwards to PushBatchOrdered; the parallel engine overrides
  /// it to route straight off the columns.
  virtual Status PushColumnarOrdered(const ColumnarBatch& batch,
                                     const uint64_t* pass);
  virtual Status FlushImpl() = 0;
  virtual void ResetImpl() = 0;
  virtual EngineStats StatsImpl() const = 0;

  /// Serializes the evaluator's state (the "state" section payload) with
  /// the checkpoint payload primitives. May quiesce worker threads.
  virtual Status CheckpointImpl(std::string* out) = 0;
  /// Restores what CheckpointImpl wrote. Runs on a freshly Reset()
  /// evaluator; must consume the payload exactly.
  virtual Status RestoreImpl(const char** p, const char* limit) = 0;

  std::shared_ptr<const plan::CompiledPlan> plan_;
  EngineOptions options_;

 private:
  /// Handles one bound-violating event on the lateness_bound == 0 path.
  Status HandleLate(const Event& event);

  /// Fires a periodic checkpoint when the event counter has crossed the
  /// next interval boundary (no-op when disabled).
  Status MaybeCheckpoint();

  /// The ordering/lateness stage of PushBatch, after the flushed check and
  /// the events_pushed accounting (PushColumnar's out-of-order fallback
  /// re-enters here with materialized rows).
  Status IngestSpan(std::span<const Event> events);

  /// Reorder stage; engaged only when options_.lateness_bound > 0.
  std::unique_ptr<exec::ReorderBuffer> reorder_;
  /// Scratch for events released by the reorder stage.
  std::vector<Event> released_;
  /// Newest admitted timestamp (lateness_bound == 0 path).
  Timestamp last_timestamp_ = 0;
  bool has_last_timestamp_ = false;
  bool flushed_ = false;
  int64_t events_pushed_ = 0;
  int64_t events_late_ = 0;
  /// Event count at which the next periodic checkpoint fires (disabled
  /// when checkpoint_interval_events is 0).
  int64_t next_checkpoint_at_ = 0;
  /// Rows the columnar pre-filter dropped before the engine hook; added to
  /// StatsImpl().events_filtered in stats() so row and columnar ingest
  /// report the same totals (the executor-side filter never sees these).
  int64_t events_filtered_columnar_ = 0;
  /// Pass-bitmap scratch for PushColumnar, reused across batches.
  std::vector<uint64_t> pass_words_;
  /// Row materialization scratch of the default PushColumnarOrdered.
  std::vector<Event> columnar_rows_;
};

/// A sink that appends every match to `*out` (not owned; must outlive the
/// engine's last Push/Flush). The common harness/test configuration.
MatchSink CollectInto(std::vector<Match>* out);

/// Factory functions behind the engine table (engine/registry.h). All
/// validate that `options.sink` is set; the partition-pure engines
/// additionally require plan->has_partition_attribute().

/// "serial": one global Matcher over the shared automaton. Matches reach
/// the sink as their window expires (on Push) and at Flush.
Result<std::unique_ptr<Engine>> CreateSerialEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

/// "partitioned": serial partition-pure execution (core::PartitionedMatcher,
/// one Matcher per key, all sharing the plan's automaton and pre-filter).
Result<std::unique_ptr<Engine>> CreatePartitionedEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

/// "parallel": the sharded runtime (exec::ParallelPartitionedMatcher) with
/// the sink wired through for incremental watermark-bounded emission; the
/// plan's pre-filter is additionally applied at ingest, so filtered events
/// are never routed or queued.
Result<std::unique_ptr<Engine>> CreateParallelEngine(
    std::shared_ptr<const plan::CompiledPlan> plan, EngineOptions options);

}  // namespace ses::engine

#endif  // SES_ENGINE_ENGINE_H_
