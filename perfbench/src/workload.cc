#include "workload.h"

#include <algorithm>
#include <memory>
#include <span>

#include "baseline/reference_matcher.h"
#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "common/random.h"
#include "engine/registry.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/table_writer.h"
#include "workload/chemotherapy.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"
#include "workload/replicate.h"

namespace perfbench {

using namespace ses;

namespace {

// paper_batch: the synthetic chemotherapy relation (58 patients give the
// paper's D1 density, W ≈ 1322 at τ = 264 h) with many cycles per patient,
// replicated k = 3 (the paper's D3, W ≈ 3950).
constexpr int kPaperPatients = 58;
constexpr int kPaperCycles = 12;
constexpr int kPaperReplication = 3;
constexpr const char* kPaperQuery =
    "PATTERN {c, d, p+} -> {b}\n"
    "WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'\n"
    "WITHIN 264h";
// Same pattern with a complete ID-equality graph, so the partition-pure
// engines (partitioned, parallel) can run it per patient.
constexpr const char* kPaperPartitionedQuery =
    "PATTERN {c, d, p+} -> {b}\n"
    "WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'\n"
    "AND c.ID = d.ID AND c.ID = p.ID AND c.ID = b.ID AND d.ID = p.ID\n"
    "AND d.ID = b.ID AND p.ID = b.ID\n"
    "WITHIN 264h";

// wire_stream: the ses_loadgen shape — two connections, each with one plan
// over its own label alphabet; consecutive A/B pairs share a join key, and
// the window is short, so every A matches the B after it.
constexpr int kStreamClients = 2;
constexpr int64_t kStreamEventsPerClient = 150'000;
constexpr int64_t kStreamKeys = 64;
constexpr int kStreamWindowTicks = 32;

// wire_fanout: 64 plans of the catalog_scale family (type i -> type i+1
// over a 26-type alphabet, joined on ID) on one connection.
constexpr int kFanoutPlans = 64;
constexpr int kFanoutAlphabet = 26;
constexpr int64_t kFanoutEvents = 150'000;
constexpr size_t kFanoutSlab = 1024;

// Reference matches kept per plan for the match-codec replays.
constexpr size_t kSampleMatches = 20'000;

std::string TypeName(int i) {
  return std::string(1, static_cast<char>('A' + (i % kFanoutAlphabet)));
}

EventRelation StreamClientEvents(const Schema& schema, int client,
                                 uint64_t seed) {
  Random rng(seed * 1000003 + static_cast<uint64_t>(client) + 1);
  const std::string a_label = "A" + std::to_string(client);
  const std::string b_label = "B" + std::to_string(client);
  EventRelation relation(schema);
  int64_t key = 0;
  for (int64_t i = 0; i < kStreamEventsPerClient; ++i) {
    const bool is_a = i % 2 == 0;
    if (is_a) key = static_cast<int64_t>(rng.Uniform(kStreamKeys));
    relation.AppendUnchecked(
        static_cast<Timestamp>(i + 1),
        {Value(key), Value(is_a ? a_label : b_label),
         Value(static_cast<double>(rng.Uniform(1000))), Value(std::string("x"))});
  }
  return relation;
}

Status ComputeReference(Workload* w) {
  for (int c = 0; c < w->num_clients(); ++c) {
    auto catalog = std::make_shared<catalog::QueryCatalog>();
    for (const PlanSpec* spec : w->PlansOf(c)) {
      SES_ASSIGN_OR_RETURN(Pattern pattern,
                           ParsePattern(spec->query, w->schema));
      SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                           plan::CompilePlan(pattern));
      SES_RETURN_IF_ERROR(catalog->Add(spec->id, std::move(plan)));
      w->expected[spec->id] = MatchTally{};
    }
    catalog::CatalogOptions options;
    options.sink = [w](std::string_view id, Match&& match) {
      const std::string key(id);
      w->expected[key].Add(match);
      std::vector<Match>& sample = w->sample_matches[key];
      if (sample.size() < kSampleMatches) sample.push_back(std::move(match));
    };
    SES_ASSIGN_OR_RETURN(
        std::unique_ptr<catalog::CatalogEngine> engine,
        catalog::CatalogEngine::Create(catalog, std::move(options)));
    SES_RETURN_IF_ERROR(engine->PushBatch(
        std::span<const Event>(w->streams[c].events())));
    SES_RETURN_IF_ERROR(engine->Flush());
  }
  return Status::OK();
}

}  // namespace

int64_t Workload::total_events() const {
  int64_t total = 0;
  for (const EventRelation& stream : streams) {
    total += static_cast<int64_t>(stream.size());
  }
  return total;
}

size_t Workload::SlabOf(int client, Timestamp t) const {
  const std::vector<Event>& events = streams[client].events();
  auto it = std::lower_bound(
      events.begin(), events.end(), t,
      [](const Event& e, Timestamp value) { return e.timestamp() < value; });
  const size_t row = std::min(static_cast<size_t>(it - events.begin()),
                              events.size() - 1);
  return row / slab_events;
}

std::vector<const PlanSpec*> Workload::PlansOf(int client) const {
  std::vector<const PlanSpec*> out;
  for (const PlanSpec& spec : plans) {
    if (spec.client == client) out.push_back(&spec);
  }
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_batch", "wire_stream",
                                                  "wire_fanout"};
  return kNames;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& out_dir) {
  Workload w;
  w.name = name;
  w.schema = workload::ChemotherapySchema();
  w.schema_text = FormatSchemaText(w.schema);
  if (name == "paper_batch") {
    workload::ChemotherapyOptions options;
    options.num_patients = kPaperPatients;
    options.cycles_per_patient = kPaperCycles;
    options.seed = seed;
    SES_ASSIGN_OR_RETURN(
        EventRelation d3,
        workload::ReplicateDataset(workload::GenerateChemotherapy(options),
                                   kPaperReplication));
    w.streams.push_back(std::move(d3));
    w.plans.push_back({"p3", kPaperQuery, 0});
    w.partitioned_query = kPaperPartitionedQuery;
    w.table_path = out_dir + "/paper_batch-" + std::to_string(seed) +
                   ".sestbl";
    SES_RETURN_IF_ERROR(storage::WriteTable(w.streams[0], w.table_path));
  } else if (name == "wire_stream") {
    for (int c = 0; c < kStreamClients; ++c) {
      w.streams.push_back(StreamClientEvents(w.schema, c, seed));
      const std::string n = std::to_string(c);
      w.plans.push_back(
          {"stream-" + n,
           "PATTERN {a} -> {b}\nWHERE a.L = 'A" + n + "' AND b.L = 'B" + n +
               "' AND a.ID = b.ID\nWITHIN " +
               std::to_string(kStreamWindowTicks) + "s",
           c});
    }
  } else if (name == "wire_fanout") {
    workload::StreamOptions options;
    options.num_events = kFanoutEvents;
    options.num_partitions = 64;
    options.min_gap = duration::Minutes(1);
    options.max_gap = duration::Minutes(5);
    options.seed = seed;
    options.type_weights.clear();
    for (int i = 0; i < kFanoutAlphabet; ++i) {
      options.type_weights.push_back({TypeName(i), 1.0});
    }
    w.streams.push_back(workload::GenerateStream(options));
    for (int i = 0; i < kFanoutPlans; ++i) {
      char id[16];
      std::snprintf(id, sizeof(id), "fan-%02d", i);
      w.plans.push_back({id,
                         "PATTERN {a} -> {x}\nWHERE a.L = '" + TypeName(i) +
                             "' AND x.L = '" + TypeName(i + 1) +
                             "' AND a.ID = x.ID\nWITHIN 2h",
                         0});
    }
    w.slab_events = kFanoutSlab;
    w.columnar = true;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }

  for (const EventRelation& stream : w.streams) {
    std::span<const Event> events(stream.events());
    std::vector<ColumnarBatch> slabs;
    for (size_t offset = 0; offset < events.size(); offset += w.slab_events) {
      slabs.push_back(ColumnarBatch::FromEvents(
          w.schema, events.subspan(offset, std::min(w.slab_events,
                                                    events.size() - offset))));
    }
    w.columnar_slabs.push_back(std::move(slabs));
  }
  SES_RETURN_IF_ERROR(ComputeReference(&w));
  return w;
}

Status CheckAgainstReferenceMatcher(const Workload& w, size_t prefix) {
  EventRelation head(w.schema);
  const std::vector<Event>& events = w.streams[0].events();
  for (size_t i = 0; i < std::min(prefix, events.size()); ++i) {
    SES_RETURN_IF_ERROR(head.Append(events[i]));
  }
  SES_ASSIGN_OR_RETURN(Pattern pattern,
                       ParsePattern(w.plans[0].query, w.schema));
  SES_ASSIGN_OR_RETURN(std::vector<Match> oracle,
                       baseline::ReferenceMatch(pattern, head));
  MatchTally want;
  for (const Match& match : oracle) want.Add(match);

  SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                       plan::CompilePlan(pattern));
  MatchTally got;
  engine::EngineOptions options;
  options.sink = [&got](Match&& match) { got.Add(match); };
  SES_ASSIGN_OR_RETURN(std::unique_ptr<engine::Engine> serial,
                       engine::CreateEngine("serial", plan, std::move(options)));
  SES_RETURN_IF_ERROR(
      serial->PushBatch(std::span<const Event>(head.events())));
  SES_RETURN_IF_ERROR(serial->Flush());
  if (!(got == want)) {
    return Status::Internal("serial engine " + got.ToString() +
                            " != ReferenceMatch " + want.ToString() +
                            " over the first " + std::to_string(head.size()) +
                            " events");
  }
  if (want.count == 0) {
    return Status::Internal("the ReferenceMatch prefix holds no match");
  }
  return Status::OK();
}

}  // namespace perfbench
