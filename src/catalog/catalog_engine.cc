#include "catalog/catalog_engine.h"

#include <utility>

#include "engine/registry.h"

namespace ses::catalog {

namespace {

/// Re-issues `status` with the plan id prepended, so a multi-plan failure
/// names the query it arose in.
Status TagPlan(const std::string& id, const Status& status) {
  return Status(status.code(), "plan '" + id + "': " + status.message());
}

}  // namespace

Result<std::unique_ptr<CatalogEngine>> CatalogEngine::Create(
    std::shared_ptr<QueryCatalog> catalog, CatalogOptions options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("CatalogEngine requires a catalog");
  }
  if (options.sink == nullptr) {
    return Status::InvalidArgument(
        "CatalogOptions::sink must be set (it receives every match tagged "
        "with its plan id)");
  }
  if (!engine::HasEngine(options.engine)) {
    return Status::NotFound("unknown per-plan engine '" + options.engine +
                            "' (see engine::ListEngines)");
  }
  auto engine = std::unique_ptr<CatalogEngine>(
      new CatalogEngine(std::move(catalog), std::move(options)));
  // Serve the current registration state right away, so a plan the chosen
  // engine cannot execute fails here instead of at the first Push.
  SES_RETURN_IF_ERROR(engine->Refresh());
  return engine;
}

Result<std::unique_ptr<CatalogEngine::PlanRuntime>> CatalogEngine::MakeRuntime(
    const CatalogEntry& entry) {
  auto runtime = std::make_unique<PlanRuntime>();
  runtime->id = entry.id;
  runtime->plan = entry.plan;
  runtime->events_seen_base = events_pushed_;
  engine::EngineOptions engine_options = options_.engine_options;
  // Per-plan periodic checkpoints would each write a partial state file;
  // the catalog checkpoints as a whole (CatalogEngine::Checkpoint).
  engine_options.checkpoint_interval_events = 0;
  engine_options.checkpoint_sink = nullptr;
  // The runtime is heap-pinned and owns the engine, so its address outlives
  // every sink invocation (sinks run inside Push/Flush).
  PlanRuntime* raw = runtime.get();
  engine_options.sink = [this, raw](Match&& match) {
    ++raw->matches;
    options_.sink(raw->id, std::move(match));
  };
  Result<std::unique_ptr<engine::Engine>> built = engine::CreateEngine(
      options_.engine, entry.plan, std::move(engine_options));
  if (!built.ok()) return TagPlan(entry.id, built.status());
  runtime->engine = std::move(*built);
  return runtime;
}

Status CatalogEngine::Refresh() {
  if (catalog_->generation() == snapshot_generation_) return Status::OK();
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog_->Snapshot();

  SharedIndexOptions index_options;
  index_options.enable_type_index = options_.shared_type_index;
  index_options.enable_shared_prefilter = options_.shared_prefilter;
  if (!options_.type_attribute.empty() && !snapshot->empty()) {
    const Schema& schema =
        snapshot->entries().front().plan->pattern().schema();
    SES_ASSIGN_OR_RETURN(index_options.type_attribute,
                         schema.IndexOf(options_.type_attribute));
    if (schema.attribute(index_options.type_attribute).type ==
        ValueType::kDouble) {
      return Status::InvalidArgument(
          "type attribute '" + options_.type_attribute +
          "' is DOUBLE-typed; floating-point equality cannot route events");
    }
  }

  // Pass 1: build runtimes for newly added plans. Any failure leaves the
  // engine serving the previous snapshot untouched.
  std::vector<std::unique_ptr<PlanRuntime>> next(snapshot->size());
  {
    size_t old_pos = 0;
    for (size_t pos = 0; pos < snapshot->size(); ++pos) {
      const CatalogEntry& entry = snapshot->entries()[pos];
      while (old_pos < runtimes_.size() && runtimes_[old_pos]->id < entry.id) {
        ++old_pos;
      }
      // Same id but a different compiled plan means the query was removed
      // and re-registered between refreshes: treat it as new, the old
      // runtime (and its partial matches) is dropped at commit.
      if (old_pos < runtimes_.size() && runtimes_[old_pos]->id == entry.id &&
          runtimes_[old_pos]->plan == entry.plan) {
        continue;  // retained; moved into place below
      }
      SES_ASSIGN_OR_RETURN(next[pos], MakeRuntime(entry));
    }
  }

  // Pass 2 (commit, cannot fail): move retained runtimes into place.
  // Runtimes of removed plans stay behind and are destroyed with `next`'s
  // predecessor — their undelivered partial matches are discarded.
  size_t old_pos = 0;
  for (size_t pos = 0; pos < snapshot->size(); ++pos) {
    if (next[pos] != nullptr) continue;
    const std::string& id = snapshot->entries()[pos].id;
    while (runtimes_[old_pos] == nullptr || runtimes_[old_pos]->id != id) {
      ++old_pos;
    }
    next[pos] = std::move(runtimes_[old_pos]);
  }
  runtimes_ = std::move(next);
  index_ = std::make_unique<SharedIndex>(*snapshot, index_options);
  snapshot_generation_ = snapshot->generation();
  ++snapshot_refreshes_;
  return Status::OK();
}

Status CatalogEngine::PushOne(const Event& event) {
  ++events_pushed_;
  if (runtimes_.empty()) return Status::OK();
  index_->BeginEvent(event);
  for (int pos : index_->InterestedPlans(event)) {
    PlanRuntime& runtime = *runtimes_[pos];
    if (!index_->PassesPrefilter(pos, event)) {
      ++runtime.events_skipped_by_prefilter;
      continue;
    }
    ++runtime.events_considered;
    if (Status status = runtime.engine->Push(event); !status.ok()) {
      return TagPlan(runtime.id, status);
    }
  }
  return Status::OK();
}

Status CatalogEngine::Push(const Event& event) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "Push after Flush: call Reset() before pushing a new stream");
  }
  SES_RETURN_IF_ERROR(Refresh());
  return PushOne(event);
}

Status CatalogEngine::PushBatch(std::span<const Event> events) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "PushBatch after Flush: call Reset() before pushing a new stream");
  }
  SES_RETURN_IF_ERROR(Refresh());
  for (const Event& event : events) {
    SES_RETURN_IF_ERROR(PushOne(event));
  }
  return Status::OK();
}

Status CatalogEngine::PushColumnar(const ColumnarBatch& batch) {
  if (flushed_) {
    return Status::FailedPrecondition(
        "PushColumnar after Flush: call Reset() before pushing a new "
        "stream");
  }
  SES_RETURN_IF_ERROR(Refresh());
  if (runtimes_.empty()) {
    events_pushed_ += static_cast<int64_t>(batch.size());
    return Status::OK();
  }
  index_->BeginBatch(batch);
  Event row_event;
  for (size_t row = 0; row < batch.size(); ++row) {
    ++events_pushed_;
    bool materialized = false;
    for (int pos : index_->InterestedPlansRow(batch, row)) {
      PlanRuntime& runtime = *runtimes_[pos];
      if (!index_->PassesPrefilterRow(pos, row)) {
        ++runtime.events_skipped_by_prefilter;
        continue;
      }
      ++runtime.events_considered;
      // First interested passing plan pays the row materialization; the
      // other plans of this row reuse it.
      if (!materialized) {
        row_event = batch.RowEvent(row);
        materialized = true;
      }
      if (Status status = runtime.engine->Push(row_event); !status.ok()) {
        return TagPlan(runtime.id, status);
      }
    }
  }
  return Status::OK();
}

Status CatalogEngine::Flush() {
  if (flushed_) return Status::OK();
  // Pick up pending removals first: a plan removed before the flush must
  // not deliver its buffered matches. Plans added here contribute nothing.
  SES_RETURN_IF_ERROR(Refresh());
  flushed_ = true;
  for (const auto& runtime : runtimes_) {
    if (Status status = runtime->engine->Flush(); !status.ok()) {
      return TagPlan(runtime->id, status);
    }
  }
  return Status::OK();
}

void CatalogEngine::Reset() {
  for (const auto& runtime : runtimes_) {
    runtime->engine->Reset();
    runtime->matches = 0;
    runtime->events_considered = 0;
    runtime->events_skipped_by_prefilter = 0;
    runtime->events_seen_base = 0;
  }
  events_pushed_ = 0;
  flushed_ = false;
}

Status CatalogEngine::Checkpoint(storage::CheckpointWriter* writer) {
  std::string base;
  storage::PutSigned(&base, events_pushed_);
  storage::PutBool(&base, flushed_);
  storage::PutCount(&base, runtimes_.size());
  for (const auto& runtime : runtimes_) {
    storage::PutString(&base, runtime->id);
    storage::PutSigned(&base, runtime->matches);
    storage::PutSigned(&base, runtime->events_considered);
    storage::PutSigned(&base, runtime->events_skipped_by_prefilter);
    storage::PutSigned(&base, runtime->events_seen_base);
  }
  writer->AddSection("catalog", base);
  for (const auto& runtime : runtimes_) {
    storage::CheckpointWriter nested;
    SES_RETURN_IF_ERROR(runtime->engine->Checkpoint(&nested));
    writer->AddSection("plan/" + runtime->id, std::move(nested).Finish());
  }
  return Status::OK();
}

Status CatalogEngine::Restore(const storage::CheckpointReader& reader) {
  // Serve the current registration state first, so the checkpointed plan
  // set is compared against what would actually run.
  SES_RETURN_IF_ERROR(Refresh());
  Reset();
  Status s = [&]() -> Status {
    Result<std::string_view> base = reader.Section("catalog");
    if (!base.ok()) {
      return Status::Corruption(
          "checkpoint is missing the 'catalog' section");
    }
    const char* p = base->data();
    const char* limit = base->data() + base->size();
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &events_pushed_));
    SES_RETURN_IF_ERROR(storage::GetBool(&p, limit, &flushed_));
    uint64_t num_plans = 0;
    SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &num_plans));
    if (num_plans != runtimes_.size()) {
      return Status::InvalidArgument(
          "checkpoint holds " + std::to_string(num_plans) +
          " plans but this catalog serves " +
          std::to_string(runtimes_.size()));
    }
    // Runtimes are sorted by id and the writer walked them in order, so
    // the ids must line up positionally.
    for (const auto& runtime : runtimes_) {
      std::string id;
      SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &id));
      if (id != runtime->id) {
        return Status::InvalidArgument(
            "checkpoint plan '" + id + "' does not match registered plan '" +
            runtime->id + "'");
      }
      SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &runtime->matches));
      SES_RETURN_IF_ERROR(
          storage::GetSigned(&p, limit, &runtime->events_considered));
      SES_RETURN_IF_ERROR(storage::GetSigned(
          &p, limit, &runtime->events_skipped_by_prefilter));
      SES_RETURN_IF_ERROR(
          storage::GetSigned(&p, limit, &runtime->events_seen_base));
    }
    if (p != limit) {
      return Status::Corruption(
          "checkpoint 'catalog' section has trailing bytes");
    }
    for (const auto& runtime : runtimes_) {
      Result<std::string_view> nested_bytes =
          reader.Section("plan/" + runtime->id);
      if (!nested_bytes.ok()) {
        return Status::Corruption("checkpoint is missing the state of plan '" +
                                  runtime->id + "'");
      }
      SES_ASSIGN_OR_RETURN(
          storage::CheckpointReader nested,
          storage::CheckpointReader::Parse(std::string(*nested_bytes)));
      if (Status status = runtime->engine->Restore(nested); !status.ok()) {
        return TagPlan(runtime->id, status);
      }
    }
    return Status::OK();
  }();
  if (!s.ok()) Reset();
  return s;
}

int64_t CatalogEngine::IndexSkips(const PlanRuntime& runtime) const {
  return (events_pushed_ - runtime.events_seen_base) -
         runtime.events_considered - runtime.events_skipped_by_prefilter;
}

CatalogStats CatalogEngine::stats() const {
  CatalogStats stats;
  stats.events_pushed = events_pushed_;
  stats.num_plans = static_cast<int64_t>(runtimes_.size());
  stats.generation = snapshot_generation_;
  stats.snapshot_refreshes = snapshot_refreshes_;
  if (index_ != nullptr) {
    stats.type_attribute = index_->type_attribute();
    stats.distinct_conditions = index_->num_distinct_conditions();
    stats.plan_conditions = index_->num_plan_conditions();
  }
  for (const auto& runtime : runtimes_) {
    stats.events_considered += runtime->events_considered;
    stats.events_skipped_by_index += IndexSkips(*runtime);
    stats.events_skipped_by_prefilter += runtime->events_skipped_by_prefilter;
    stats.matches += runtime->matches;
  }
  return stats;
}

std::vector<PlanStats> CatalogEngine::plan_stats() const {
  std::vector<PlanStats> rows;
  rows.reserve(runtimes_.size());
  for (const auto& runtime : runtimes_) {
    PlanStats row;
    row.id = runtime->id;
    row.matches = runtime->matches;
    row.events_considered = runtime->events_considered;
    row.events_skipped_by_index = IndexSkips(*runtime);
    row.events_skipped_by_prefilter = runtime->events_skipped_by_prefilter;
    row.engine = runtime->engine->stats();
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ses::catalog
