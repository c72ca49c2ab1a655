#include "catalog/catalog_engine.h"

#include <utility>

namespace ses::catalog {

CatalogEngine::PlanRuntime::PlanRuntime(
    std::string id, std::shared_ptr<const plan::CompiledPlan> plan,
    int64_t events_seen_base)
    : id(std::move(id)),
      plan(std::move(plan)),
      executor(&this->plan->automaton(),
               MatcherOptions{.enable_prefilter = false}),
      events_seen_base(events_seen_base) {}

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
  auto engine = std::unique_ptr<CatalogEngine>(
      new CatalogEngine(std::move(catalog), std::move(options)));
  engine->Refresh();
  return engine;
}

void CatalogEngine::Refresh() {
  if (catalog_->generation() == snapshot_generation_) return;
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog_->Snapshot();
  // Both lists are sorted by id: keep the runtime of every plan still
  // registered, build one for each added plan. Same id but a different
  // compiled plan means the query was removed and re-registered between
  // refreshes: it is new. Runtimes left behind belong to removed plans and
  // are destroyed with their undelivered partial matches.
  std::vector<std::unique_ptr<PlanRuntime>> next;
  next.reserve(snapshot->size());
  size_t old_pos = 0;
  for (const CatalogEntry& entry : snapshot->entries()) {
    while (old_pos < runtimes_.size() && runtimes_[old_pos]->id < entry.id) {
      ++old_pos;
    }
    if (old_pos < runtimes_.size() && runtimes_[old_pos]->id == entry.id &&
        runtimes_[old_pos]->plan == entry.plan) {
      next.push_back(std::move(runtimes_[old_pos++]));
    } else {
      next.push_back(
          std::make_unique<PlanRuntime>(entry.id, entry.plan,
                                        stream_.events_pushed()));
    }
  }
  runtimes_ = std::move(next);
  index_ = std::make_unique<SharedIndex>(*snapshot);
  snapshot_generation_ = snapshot->generation();
  ++snapshot_refreshes_;
}

void CatalogEngine::Deliver(const PlanRuntime& runtime) {
  for (Match& match : emitted_) options_.sink(runtime.id, std::move(match));
  emitted_.clear();
}

void CatalogEngine::Route(const Event& event) {
  index_->BeginEvent(event);
  for (int pos : index_->InterestedPlans(event)) {
    PlanRuntime& runtime = *runtimes_[pos];
    if (!index_->PassesPrefilter(pos, event)) {
      ++runtime.events_skipped_by_prefilter;
      continue;
    }
    runtime.executor.Consume(event, &emitted_);
    Deliver(runtime);
  }
}

void CatalogEngine::AdvanceToWatermark() {
  if (!stream_.has_watermark()) return;
  for (const auto& runtime : runtimes_) {
    runtime->executor.AdvanceTo(stream_.watermark(), &emitted_);
    Deliver(*runtime);
  }
}

Status CatalogEngine::Push(const Event& event) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  Refresh();
  SES_RETURN_IF_ERROR(stream_.Admit(event.timestamp()));
  Route(event);
  AdvanceToWatermark();
  return Status::OK();
}

Status CatalogEngine::PushBatch(std::span<const Event> events) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  Refresh();
  const size_t admitted = stream_.AdmitPrefix(events);
  for (const Event& event : events.first(admitted)) Route(event);
  AdvanceToWatermark();
  if (admitted < events.size()) {
    return stream_.OutOfOrder(events[admitted].timestamp());
  }
  return Status::OK();
}

Status CatalogEngine::PushColumnar(const ColumnarBatch& batch) {
  SES_RETURN_IF_ERROR(stream_.CheckOpen());
  Refresh();
  const std::vector<Timestamp>& timestamps = batch.timestamps();
  const size_t admitted = stream_.AdmitPrefix(timestamps);
  index_->BeginBatch(batch);
  Event row_event;
  for (size_t row = 0; row < admitted; ++row) {
    bool materialized = false;
    for (int pos : index_->InterestedPlansRow(batch, row)) {
      PlanRuntime& runtime = *runtimes_[pos];
      if (!index_->PassesPrefilterRow(pos, row)) {
        ++runtime.events_skipped_by_prefilter;
        continue;
      }
      // First interested passing plan pays the row materialization; the
      // other plans of this row reuse it. The row is shared, so every plan
      // that binds it keeps the same values instead of copying them.
      if (!materialized) {
        row_event = batch.RowEvent(row).Shared();
        materialized = true;
      }
      runtime.executor.Consume(row_event, &emitted_);
      Deliver(runtime);
    }
  }
  AdvanceToWatermark();
  if (admitted < batch.size()) {
    return stream_.OutOfOrder(timestamps[admitted]);
  }
  return Status::OK();
}

Status CatalogEngine::Flush() {
  if (stream_.flushed()) return Status::OK();
  // Pick up pending removals first: a plan removed before the flush must
  // not deliver its buffered matches. Plans added here contribute nothing.
  Refresh();
  stream_.MarkFlushed();
  for (const auto& runtime : runtimes_) {
    runtime->executor.Flush(&emitted_);
    Deliver(*runtime);
  }
  return Status::OK();
}

void CatalogEngine::Reset() {
  for (const auto& runtime : runtimes_) {
    runtime->executor.Reset();
    runtime->events_skipped_by_prefilter = 0;
    runtime->events_seen_base = 0;
  }
  stream_.Reset();
}

Status CatalogEngine::Checkpoint(storage::CheckpointWriter* writer) {
  std::string base;
  stream_.Checkpoint(&base);
  storage::PutCount(&base, runtimes_.size());
  for (const auto& runtime : runtimes_) {
    storage::PutString(&base, runtime->id);
    storage::PutSigned(&base, runtime->events_skipped_by_prefilter);
    storage::PutSigned(&base, runtime->events_seen_base);
  }
  writer->AddSection("catalog", base);
  for (const auto& runtime : runtimes_) {
    std::string state;
    runtime->executor.Checkpoint(&state);
    writer->AddSection("plan/" + runtime->id, state);
  }
  return Status::OK();
}

Status CatalogEngine::Restore(const storage::CheckpointReader& reader) {
  // Serve the current registration state first, so the checkpointed plan
  // set is compared against what would actually run.
  Refresh();
  Reset();
  Status s = [&]() -> Status {
    Result<std::string_view> base = reader.Section("catalog");
    if (!base.ok()) {
      return Status::Corruption(
          "checkpoint is missing the 'catalog' section");
    }
    const char* p = base->data();
    const char* limit = base->data() + base->size();
    SES_RETURN_IF_ERROR(stream_.Restore(&p, limit));
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
      Result<std::string_view> state = reader.Section("plan/" + runtime->id);
      if (!state.ok()) {
        return Status::Corruption("checkpoint is missing the state of plan '" +
                                  runtime->id + "'");
      }
      p = state->data();
      limit = state->data() + state->size();
      SES_RETURN_IF_ERROR(runtime->executor.Restore(&p, limit));
      if (p != limit) {
        return Status::Corruption("checkpoint state of plan '" + runtime->id +
                                  "' has trailing bytes");
      }
    }
    return Status::OK();
  }();
  if (!s.ok()) Reset();
  return s;
}

int64_t CatalogEngine::IndexSkips(const PlanRuntime& runtime) const {
  return (stream_.events_pushed() - runtime.events_seen_base) -
         runtime.executor.stats().events_seen -
         runtime.events_skipped_by_prefilter;
}

CatalogStats CatalogEngine::stats() const {
  CatalogStats stats;
  stats.events_pushed = stream_.events_pushed();
  stats.num_plans = static_cast<int64_t>(runtimes_.size());
  stats.generation = snapshot_generation_;
  stats.snapshot_refreshes = snapshot_refreshes_;
  if (index_ != nullptr) {
    stats.type_attribute = index_->type_attribute();
    stats.distinct_conditions = index_->num_distinct_conditions();
    stats.plan_conditions = index_->num_plan_conditions();
  }
  for (const auto& runtime : runtimes_) {
    const ExecutorStats& executor = runtime->executor.stats();
    stats.events_considered += executor.events_seen;
    stats.events_skipped_by_index += IndexSkips(*runtime);
    stats.events_skipped_by_prefilter += runtime->events_skipped_by_prefilter;
    stats.matches += executor.matches_emitted;
  }
  return stats;
}

std::vector<PlanStats> CatalogEngine::plan_stats() const {
  std::vector<PlanStats> rows;
  rows.reserve(runtimes_.size());
  for (const auto& runtime : runtimes_) {
    PlanStats row;
    row.id = runtime->id;
    row.executor = runtime->executor.stats();
    row.matches = row.executor.matches_emitted;
    row.events_considered = row.executor.events_seen;
    row.events_skipped_by_index = IndexSkips(*runtime);
    row.events_skipped_by_prefilter = runtime->events_skipped_by_prefilter;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ses::catalog
