#ifndef SES_EXEC_PARALLEL_PARTITIONED_H_
#define SES_EXEC_PARALLEL_PARTITIONED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/partitioned.h"
#include "event/columnar.h"

namespace ses::exec {

/// Parallel partitioned execution — the sharded runtime on top of
/// core/partitioned.h.
///
/// The SES automaton is embarrassingly parallel across equality partitions:
/// once a pattern carries a complete equality graph on one attribute
/// (FindPartitionAttribute), events of different key values never interact.
/// This runtime exploits that by routing each partition key to worker shard
/// hash(key) % N, fixed for the key's lifetime. Each shard owns an event
/// queue, one PartitionedMatcher over its keys (all shards share ONE
/// compiled automaton — the exponential powerset construction runs exactly
/// once per pattern), and a private match buffer. The runtime adds only
/// routing, batching and the match merge: every per-key step, eviction,
/// flush and checkpoint is PartitionedMatcher's. The ingest thread batches
/// events per shard to amortize queue locking.
///
/// Match delivery has two modes. Without a sink, matches are reported at
/// the Flush() barrier: every shard flushes its partitions, the ingest
/// thread merges the per-shard buffers and sorts them with SortMatches, so
/// the output is byte-identical to serial partitioned (and global)
/// execution after the same normalization, independent of shard count and
/// scheduling. With a sink installed (ParallelOptions::sink), matches are
/// additionally delivered *incrementally*: each worker seals its per-batch
/// matches as a sorted run, and the ingest thread k-way-merges the runs
/// and emits every match whose start time lies below the safety watermark
/// min(shard progress) − τe − τ — no later match can sort before that
/// point (see docs/SEMANTICS.md §8) — so the resident match buffer stays
/// bounded on long streams instead of growing until Flush. The emitted sequence over the whole stream is exactly the
/// canonical sorted order either way.
///
/// Partition eviction: streaming over high-cardinality keys must not keep
/// every partition resident forever. After each batch, a shard runs
/// PartitionedMatcher::EvictIdle with the batch's newest timestamp: a
/// partition whose newest event is older than that minus τe = τ is flushed
/// (accepting instances emit their matches) and reclaimed, which preserves
/// Definition 2 semantics exactly (see DESIGN.md §8).
struct ParallelOptions {
  /// Number of worker shards (threads). Clamped to at least 1.
  int num_shards = 4;
  /// Events buffered per shard before the batch is enqueued.
  size_t batch_size = 256;
  /// Queue capacity per shard, in batches; bounds the memory a slow shard
  /// can accumulate (the ingest thread blocks when a queue is full).
  size_t queue_capacity = 64;
  /// Options forwarded to every per-partition executor.
  MatcherOptions matcher;
  /// Streaming match consumer. When set, Flush(out) delivers every match to
  /// the sink (out may be null), and matches are emitted incrementally
  /// below the safety watermark while the stream is still running, keeping
  /// match memory bounded. The sink runs on the ingest thread (inside
  /// Push/PushBatch/Flush).
  MatchSink sink;
  /// How often (in ingested events) the ingest thread collects sealed shard
  /// runs and emits matches below the safety watermark. Only meaningful
  /// with a sink; clamped to at least 1.
  int64_t emit_interval_events = 4096;
};

/// Counters owned by one shard worker. Only the worker writes them; the
/// ingest thread reads them after the Flush/Reset acknowledgement barrier.
struct ShardStats {
  int64_t partitions_created = 0;
  int64_t partitions_evicted = 0;
  /// Wall-clock nanoseconds this worker spent processing batches.
  int64_t busy_nanos = 0;
};

/// Aggregated runtime statistics, snapshotted at Flush().
struct ParallelStats {
  int64_t events_ingested = 0;
  int64_t batches_enqueued = 0;
  int64_t partitions_created = 0;
  int64_t partitions_evicted = 0;
  int64_t max_queue_depth = 0;
  /// Peak number of completed matches resident in sealed shard runs plus
  /// the ingest-side merger — the buffer that incremental emission bounds.
  int64_t max_buffered_matches = 0;
  std::vector<ShardStats> shards;
};

/// The parallel analogue of PartitionedMatcher. Streaming contract:
///
///   SES_ASSIGN_OR_RETURN(auto matcher,
///                        ParallelPartitionedMatcher::Create(p, attr, opts));
///   for (const Event& e : incoming) matcher.Push(e);
///   std::vector<Match> matches;
///   matcher.Flush(&matches);   // barrier + merge
///   matcher.Reset();           // optional reuse
///
/// Push is asynchronous: without a sink, matches surface only at Flush (the
/// deterministic merge needs all shards quiesced). Precondition, as for
/// PartitionedMatcher: events arrive in strictly increasing timestamp
/// order, also across calls. Nothing here checks it; RunRelation does, with
/// ValidateTotalOrder, and the parallel engine's StreamStage does for the
/// engine's entry points.
class ParallelPartitionedMatcher {
 public:
  /// `attribute` must satisfy FindPartitionAttribute semantics for
  /// `pattern` (same validation as PartitionedMatcher::Create). Compiles
  /// the automaton once and starts the worker threads.
  static Result<ParallelPartitionedMatcher> Create(const Pattern& pattern,
                                                   int attribute,
                                                   ParallelOptions options = {});

  /// Shares a pre-compiled automaton — the plan-driven construction path
  /// (see plan::CompiledPlan). The powerset construction runs once per
  /// plan, shared by every partition of every shard.
  static Result<ParallelPartitionedMatcher> Create(
      std::shared_ptr<const SesAutomaton> automaton, int attribute,
      ParallelOptions options = {});

  ~ParallelPartitionedMatcher();
  ParallelPartitionedMatcher(ParallelPartitionedMatcher&&) noexcept;
  ParallelPartitionedMatcher& operator=(ParallelPartitionedMatcher&&) noexcept;

  /// Routes the event to its key's shard.
  void Push(const Event& event);

  /// Batched ingest: routes a whole span of events in one pass, grouping
  /// them by destination shard and handing each shard its slab of
  /// batch_size-bounded batches with a single queue synchronization
  /// (BatchQueue::PushAll), instead of one lock + notify per batch.
  /// Semantically identical to pushing each event — only the ingest-side
  /// synchronization cost changes.
  void PushBatch(std::span<const Event> events);

  /// Columnar ingest: routes the passing rows of a columnar batch in one
  /// pass, hashing partition keys straight off the key column (per
  /// dictionary code for STRING keys) and materializing a row-wise Event
  /// only for the rows that are actually shipped to a worker.
  /// `pass_bitmap` is a §4.5 pass-bitmap over the rows (bit r of word
  /// r/64; see core/filter.h) or nullptr to route every row. Routing,
  /// slab cutting, and emission cadence are identical to PushBatch over
  /// the same surviving rows — only the per-row Value/Event touch count
  /// changes.
  void PushColumnar(const ColumnarBatch& batch, const uint64_t* pass_bitmap);

  /// Relation-level splitter: validates the relation's total order once,
  /// then feeds it through PushBatch in bounded chunks so workers start
  /// draining while ingest is still running. Does not Flush — call it
  /// repeatedly to concatenate relations into one stream, then Flush.
  Status RunRelation(const EventRelation& relation);

  /// Barrier: drains every shard, flushes all partitions, merges the
  /// per-shard match buffers deterministically (SortMatches order) into
  /// `out` — or into the sink when one is installed (`out` may then be
  /// null; it receives nothing) — and snapshots stats(). The matcher stays
  /// usable afterwards; call Reset() before feeding a new relation.
  void Flush(std::vector<Match>* out);

  /// Drops all shard state (partitions, buffered matches, statistics) so
  /// the matcher can consume a new relation.
  void Reset();

  /// Quiesces every shard (sync barrier: all pending events are processed,
  /// no state is flushed) and serializes the complete runtime state — the
  /// ingest counters, every shard's PartitionedMatcher and buffered
  /// matches, and the incremental-emission merger — into `out` with the
  /// checkpoint payload primitives. The matcher keeps running afterwards;
  /// a restored matcher continues the stream with a byte-identical match
  /// sequence (docs/SEMANTICS.md §12).
  void Checkpoint(std::string* out);

  /// Restores state written by Checkpoint() of a matcher with the same
  /// shard count and compiled pattern. Must be called before any events are
  /// pushed (or after Reset()); on error the matcher is left Reset().
  Status Restore(const char** p, const char* limit);

  /// Statistics snapshotted at the last Flush(), plus ingest-side counters.
  const ParallelStats& stats() const;

  const SesAutomaton& automaton() const;
  int num_shards() const;

 private:
  struct Impl;
  explicit ParallelPartitionedMatcher(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Batch API, mirroring PartitionedMatchRelation. When `attribute` is
/// negative it is auto-detected with FindPartitionAttribute.
Result<std::vector<Match>> ParallelPartitionedMatchRelation(
    const Pattern& pattern, const EventRelation& relation, int attribute = -1,
    ParallelOptions options = {}, ParallelStats* stats = nullptr);

}  // namespace ses::exec

#endif  // SES_EXEC_PARALLEL_PARTITIONED_H_
