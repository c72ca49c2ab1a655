#ifndef SES_CATALOG_CATALOG_ENGINE_H_
#define SES_CATALOG_CATALOG_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/query_catalog.h"
#include "catalog/shared_index.h"
#include "common/result.h"
#include "common/time.h"
#include "core/executor.h"
#include "core/match.h"
#include "core/stream_stage.h"
#include "event/columnar.h"
#include "plan/compiled_plan.h"
#include "storage/checkpoint.h"

namespace ses::catalog {

/// Streaming consumer of demultiplexed matches: which registered plan
/// matched, and the match itself. Runs on the thread driving the catalog
/// engine; must not re-enter it. The id reference is valid only for the
/// duration of the call.
using CatalogMatchSink = std::function<void(std::string_view plan_id,
                                            Match&&)>;

/// Runtime knobs of a catalog engine, fixed at creation.
struct CatalogOptions {
  /// Required; receives every match tagged with the plan that produced it.
  CatalogMatchSink sink;
};

/// Per-plan statistics snapshot, one row per registered plan (sorted by
/// id, the evaluation order).
struct PlanStats {
  std::string id;
  /// Matches delivered for this plan so far.
  int64_t matches = 0;
  /// Events this plan's executor actually received.
  int64_t events_considered = 0;
  /// Events routed away by the type index before any per-plan work: the
  /// event's type value was outside the plan's alphabet. Counted against
  /// the events pushed while the plan was registered.
  int64_t events_skipped_by_index = 0;
  /// Events the shared pre-filter bitmap rejected for this plan: the
  /// plan's §4.5 filter drops them, so its executor never sees them.
  int64_t events_skipped_by_prefilter = 0;
  /// The plan's executor counters (instances, transitions, conditions).
  /// `events_filtered` stays 0: the shared bitmap is the plan's filter.
  ExecutorStats executor;
};

/// Catalog-wide statistics snapshot.
struct CatalogStats {
  /// Events offered to the catalog (before any routing).
  int64_t events_pushed = 0;
  int64_t num_plans = 0;
  /// Catalog generation the engine is currently serving.
  int64_t generation = 0;
  /// How many times the engine refreshed onto a new snapshot.
  int64_t snapshot_refreshes = 0;
  /// Resolved schema index of the routing attribute; -1 = index inactive.
  int type_attribute = -1;
  /// Shared pre-filter table: distinct conditions vs the per-plan total
  /// they replaced.
  int64_t distinct_conditions = 0;
  int64_t plan_conditions = 0;
  /// Sums of the per-plan counters.
  int64_t events_considered = 0;
  int64_t events_skipped_by_index = 0;
  int64_t events_skipped_by_prefilter = 0;
  int64_t matches = 0;
};

/// Evaluates every plan registered in a QueryCatalog in ONE pass over one
/// time-ordered stream: the catalog's StreamStage checks the stream's
/// timestamp order once per event, the type index routes the event to the
/// plans whose alphabet contains its type value, the shared pre-filter
/// bitmap answers each plan's §4.5 filter from conditions evaluated at
/// most once per event, and each surviving (event, plan) pair is one step
/// of that plan's SesExecutor. At the end of every push call each plan's
/// clock advances to the stream's watermark, so a finished match is
/// delivered by the call whose events pass its window, whichever plans
/// those events reach. Matches go straight to the catalog sink with the
/// plan id attached.
///
/// Registration is picked up at batch boundaries: every Push / PushBatch /
/// Flush first compares the catalog's generation with the snapshot being
/// served and, when it moved, creates executors for added plans and drops
/// removed ones (discarding their partial matches — matches already
/// delivered stay delivered). A plan added mid-stream sees only the
/// events pushed after the refresh that admitted it.
///
/// Contract: engine::Engine's (docs/SEMANTICS.md §9) — timestamps strictly
/// increase across the whole stream, whichever plans an event reaches (and
/// also while no plan is registered); Flush once at end-of-stream; Reset
/// to reuse. For every plan the delivered match set and match order are
/// identical to a standalone serial engine running that plan alone over
/// the same events (differential-tested in tests/catalog_test.cc; argument
/// in docs/SEMANTICS.md §10). Not thread-safe; drive from one thread.
class CatalogEngine {
 public:
  /// Validates the arguments (catalog and sink set) and serves `catalog` —
  /// initially empty catalogs are fine, plans may be added while
  /// streaming.
  static Result<std::unique_ptr<CatalogEngine>> Create(
      std::shared_ptr<QueryCatalog> catalog, CatalogOptions options);

  /// Offers the next event to every interested plan. A timestamp not after
  /// the newest one seen is InvalidArgument, is not counted and reaches no
  /// plan; the stream may continue with later events. After Flush every
  /// push is FailedPrecondition until Reset().
  Status Push(const Event& event);

  /// Pushes a span of events under the same contract; the registration
  /// refresh runs once per call, not per event. The in-order prefix is
  /// evaluated, and the first backwards event fails the call.
  Status PushBatch(std::span<const Event> events);

  /// Columnar ingest: one pass over the batch in which the shared
  /// pre-filter table is evaluated per COLUMN (SharedIndex::BeginBatch)
  /// instead of per event, and the type-index lookup is resolved per
  /// dictionary code for STRING routing attributes. Each surviving row is
  /// materialized at most once — lazily, on its first interested passing
  /// plan — as a shared event (Event::Shared()), so every plan that binds
  /// it holds the same values block. Rows are offered to the plans'
  /// executors in the same order as PushBatch over the same events, and
  /// the order check reads the timestamp column, so every plan's match set
  /// and counters are unchanged (docs/SEMANTICS.md §11).
  Status PushColumnar(const ColumnarBatch& batch);

  /// End-of-stream barrier: flushes every plan's executor (delivering all
  /// remaining matches). After Flush, Push fails with FailedPrecondition
  /// until Reset().
  Status Flush();

  /// Drops all per-plan execution state, the stream's timestamp watermark
  /// and the counters; registered plans stay registered. The stream may
  /// start over.
  void Reset();

  CatalogStats stats() const;

  /// Serializes the full multi-query runtime state into `writer`: a
  /// "catalog" section (the stream stage and per-plan routing counters)
  /// and one section per registered plan under "plan/<id>" holding that
  /// plan's executor state (SesExecutor::Checkpoint). Call between events;
  /// the engine keeps running.
  Status Checkpoint(storage::CheckpointWriter* writer);

  /// Restores state written by Checkpoint() of a catalog engine serving
  /// the same registered plans (matched by id). Returns InvalidArgument
  /// when the registered plan set differs from the checkpointed one,
  /// Corruption for malformed payloads. On error the engine is left
  /// Reset().
  Status Restore(const storage::CheckpointReader& reader);

  /// One row per registered plan, sorted by id.
  std::vector<PlanStats> plan_stats() const;

  const QueryCatalog& catalog() const { return *catalog_; }

 private:
  /// Execution state of one registered plan. Heap-pinned: the executor
  /// points into the plan's automaton, which `plan` keeps alive.
  struct PlanRuntime {
    PlanRuntime(std::string id, std::shared_ptr<const plan::CompiledPlan> plan,
                int64_t events_seen_base);

    std::string id;
    std::shared_ptr<const plan::CompiledPlan> plan;
    /// Runs with its own §4.5 filter off: the shared index has already
    /// applied it (docs/SEMANTICS.md §10). Its events_seen and
    /// matches_emitted are the plan's considered events and matches.
    SesExecutor executor;
    int64_t events_skipped_by_prefilter = 0;
    /// Catalog events_pushed at registration (or Reset); the events this
    /// plan was registered for is events_pushed - events_seen_base, and
    /// the index-skip count is what the other counters leave unaccounted.
    int64_t events_seen_base = 0;
  };

  CatalogEngine(std::shared_ptr<QueryCatalog> catalog, CatalogOptions options)
      : catalog_(std::move(catalog)), options_(std::move(options)) {}

  /// Rebuilds runtimes_ + index_ against the current catalog snapshot if
  /// the generation moved.
  void Refresh();

  /// Hands the matches `runtime`'s executor just emitted to the sink.
  void Deliver(const PlanRuntime& runtime);

  /// Offers one admitted event to the plans the index routes it to.
  void Route(const Event& event);

  /// Advances every plan's clock to the stream's watermark and delivers
  /// the matches whose window it passed; ends every push call.
  void AdvanceToWatermark();

  int64_t IndexSkips(const PlanRuntime& runtime) const;

  std::shared_ptr<QueryCatalog> catalog_;
  CatalogOptions options_;
  /// Served registration state; entries sorted by id, aligned with
  /// index_'s plan positions.
  std::vector<std::unique_ptr<PlanRuntime>> runtimes_;
  std::unique_ptr<SharedIndex> index_;
  int64_t snapshot_generation_ = -1;
  int64_t snapshot_refreshes_ = 0;
  /// The stream contract: Flush state, order check, admitted count.
  StreamStage stream_;
  /// Matches of the executor call in progress, drained by Deliver.
  std::vector<Match> emitted_;
};

}  // namespace ses::catalog

#endif  // SES_CATALOG_CATALOG_ENGINE_H_
