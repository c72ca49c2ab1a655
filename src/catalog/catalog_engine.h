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
#include "engine/engine.h"

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
  /// Registry name of the per-plan evaluator (engine/registry.h). Every
  /// registered plan runs under the same engine kind; partition-pure
  /// engines fail a Push-time refresh if a registered plan is not
  /// partitionable.
  std::string engine = "serial";
  /// Template for every per-plan engine (shards, lateness bound, ...).
  /// The sink field is ignored — the catalog installs its own demux sink —
  /// and so are the periodic-checkpoint fields: checkpoint the catalog as
  /// a whole with CatalogEngine::Checkpoint instead of per plan.
  engine::EngineOptions engine_options;
};

/// Per-plan statistics snapshot, one row per registered plan (sorted by
/// id, the evaluation order).
struct PlanStats {
  std::string id;
  /// Matches delivered for this plan so far.
  int64_t matches = 0;
  /// Events this plan's engine actually received.
  int64_t events_considered = 0;
  /// Events routed away by the type index before any per-plan work: the
  /// event's type value was outside the plan's alphabet. Counted against
  /// the events pushed while the plan was registered.
  int64_t events_skipped_by_index = 0;
  /// Events the shared pre-filter bitmap rejected for this plan (its
  /// engine never saw them; the engine's own §4.5 filter would have
  /// dropped them after per-plan re-evaluation).
  int64_t events_skipped_by_prefilter = 0;
  /// The inner engine's full counter snapshot.
  engine::EngineStats engine;
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

/// Evaluates every plan registered in a QueryCatalog in ONE pass per event
/// batch: the type index routes each event to the plans whose alphabet
/// contains its type value, the shared pre-filter bitmap answers each
/// plan's §4.5 ShouldProcess from conditions evaluated at most once per
/// event, and surviving events are pushed into per-plan engines (one
/// registered engine instance per plan, all built from the same options
/// template) whose sinks demultiplex into the catalog sink with the plan
/// id attached.
///
/// Registration is picked up at batch boundaries: every Push / PushBatch /
/// Flush first compares the catalog's generation with the snapshot being
/// served and, when it moved, creates engines for added plans and drops
/// removed ones (discarding their partial matches — matches already
/// delivered stay delivered). A plan added mid-stream sees only the
/// events pushed after the refresh that admitted it.
///
/// Contract: same stream contract as engine::Engine (in-order timestamps,
/// or bounded lateness via the options template; Flush once at
/// end-of-stream; Reset to reuse). For every plan the delivered match set
/// is identical to a standalone engine of the same kind running that plan
/// alone over the same events (differential-tested in
/// tests/catalog_test.cc; argument in docs/SEMANTICS.md §10). Not
/// thread-safe; drive from one thread.
class CatalogEngine {
 public:
  /// Validates the options (sink set, engine name registered) and serves
  /// `catalog` — initially empty catalogs are fine, plans may be added
  /// while streaming. Fails fast when a registered plan cannot be built
  /// under the chosen engine (e.g. partitioned over a non-partitionable
  /// plan).
  static Result<std::unique_ptr<CatalogEngine>> Create(
      std::shared_ptr<QueryCatalog> catalog, CatalogOptions options);

  /// Offers the next event to every interested plan. An error (late
  /// timestamp, failed refresh) names the plan it arose in, if any;
  /// engine state is unusable for this stream afterwards except via
  /// Reset().
  Status Push(const Event& event);

  /// Pushes a span of events under the same contract; the registration
  /// refresh runs once per call, not per event.
  Status PushBatch(std::span<const Event> events);

  /// Columnar ingest: one pass over the batch in which the shared
  /// pre-filter table is evaluated per COLUMN (SharedIndex::BeginBatch)
  /// instead of per event, and the type-index lookup is resolved per
  /// dictionary code for STRING routing attributes. Each surviving row is
  /// materialized at most once — lazily, on its first interested passing
  /// plan — as a shared event (Event::Shared()), so every plan that binds
  /// it holds the same values block. Rows are offered to the per-plan
  /// engines in the same order as PushBatch over the same events, so every
  /// plan's match set and counters are unchanged (docs/SEMANTICS.md §11).
  Status PushColumnar(const ColumnarBatch& batch);

  /// End-of-stream barrier: flushes every per-plan engine (delivering all
  /// remaining matches). After Flush, Push fails with FailedPrecondition
  /// until Reset().
  Status Flush();

  /// Drops all per-plan execution state and counters; registered plans
  /// stay registered and their engines are reused after an engine-level
  /// Reset. The stream may restart from scratch.
  void Reset();

  CatalogStats stats() const;

  /// Serializes the full multi-query runtime state into `writer`: a
  /// "catalog" section (stream cursor plus per-plan routing counters) and
  /// one nested, self-validating checkpoint per registered plan under
  /// "plan/<id>" (the plan engine's own Checkpoint output, sealed with its
  /// own CRCs). Call between events; the engine keeps running.
  Status Checkpoint(storage::CheckpointWriter* writer);

  /// Restores state written by Checkpoint() of a catalog engine serving
  /// the same registered plans (matched by id) under the same
  /// configuration. Returns InvalidArgument when the registered plan set
  /// differs from the checkpointed one, Corruption for malformed payloads.
  /// On error the engine is left Reset().
  Status Restore(const storage::CheckpointReader& reader);

  /// One row per registered plan, sorted by id.
  std::vector<PlanStats> plan_stats() const;

  const QueryCatalog& catalog() const { return *catalog_; }

 private:
  /// Execution state of one registered plan. Heap-pinned: the engine's
  /// sink closure captures the runtime's address.
  struct PlanRuntime {
    std::string id;
    std::shared_ptr<const plan::CompiledPlan> plan;
    std::unique_ptr<engine::Engine> engine;
    int64_t matches = 0;
    int64_t events_considered = 0;
    int64_t events_skipped_by_prefilter = 0;
    /// Catalog events_pushed at registration (or Reset); the events this
    /// plan was registered for is events_pushed - events_seen_base, and
    /// the index-skip count is what the other counters leave unaccounted.
    int64_t events_seen_base = 0;
  };

  CatalogEngine(std::shared_ptr<QueryCatalog> catalog, CatalogOptions options)
      : catalog_(std::move(catalog)), options_(std::move(options)) {}

  /// Rebuilds runtimes_ + index_ against the current catalog snapshot if
  /// the generation moved. All-or-nothing: on error the engine keeps
  /// serving the previous snapshot.
  Status Refresh();

  Result<std::unique_ptr<PlanRuntime>> MakeRuntime(const CatalogEntry& entry);

  /// Push of one event against the current snapshot (no refresh).
  Status PushOne(const Event& event);

  int64_t IndexSkips(const PlanRuntime& rt) const;

  std::shared_ptr<QueryCatalog> catalog_;
  CatalogOptions options_;
  /// Served registration state; entries sorted by id, aligned with
  /// index_'s plan positions.
  std::vector<std::unique_ptr<PlanRuntime>> runtimes_;
  std::unique_ptr<SharedIndex> index_;
  int64_t snapshot_generation_ = -1;
  int64_t snapshot_refreshes_ = 0;
  int64_t events_pushed_ = 0;
  bool flushed_ = false;
};

}  // namespace ses::catalog

#endif  // SES_CATALOG_CATALOG_ENGINE_H_
