// Differential and lifecycle tests for the multi-pattern catalog layer
// (src/catalog/): for every registered plan, CatalogEngine's delivered
// match set must be identical to a standalone serial engine running that
// plan alone over the same events — for N ∈ {1, 10, 100} plans with
// overlapping alphabets, under skewed type mixes, for a DOUBLE literal on
// an INT routing attribute, and across add/remove-while-streaming
// (docs/SEMANTICS.md §10), and delivered by the same call that a
// standalone engine delivers it on, whichever plans that call's events
// reach. Plus the stream contract (one ordered stream, checked whichever
// plans an event reaches, with the engine's codes and messages) and the
// registration contract: duplicate ids, schema pinning, remove-then-push,
// empty catalogs, disjoint alphabets, reuse via Reset.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "engine/registry.h"
#include "event/columnar.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::catalog::CatalogEngine;
using ::ses::catalog::CatalogOptions;
using ::ses::catalog::CatalogStats;
using ::ses::catalog::PlanStats;
using ::ses::catalog::QueryCatalog;
using ::ses::plan::CompiledPlan;
using ::ses::plan::CompilePlan;
using ::ses::plan::PlanOptions;
using ::ses::workload::ChemotherapySchema;

std::shared_ptr<const CompiledPlan> MustPlan(const std::string& text,
                                             PlanOptions options = {}) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(*pattern, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// The overlapping two-type plan family the differential tests register:
/// plan i watches types T[i % k] then T[(i + 1) % k] of `types`, joined on
/// ID — so consecutive plans share one type and every type interests
/// several plans.
std::shared_ptr<const CompiledPlan> FamilyPlan(
    int i, const std::vector<std::string>& types, PlanOptions options = {}) {
  const std::string& first = types[i % types.size()];
  const std::string& second = types[(i + 1) % types.size()];
  return MustPlan("PATTERN {a} -> {x} WHERE a.L = '" + first +
                      "' AND x.L = '" + second +
                      "' AND a.ID = x.ID WITHIN 3h",
                  options);
}

EventRelation TypedStream(uint64_t seed, int64_t events,
                          const std::vector<std::string>& types,
                          bool skewed = false) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = 16;
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(10);
  options.seed = seed;
  options.type_weights.clear();
  double weight = 1.0;
  for (const std::string& type : types) {
    options.type_weights.push_back({type, weight});
    // Harshly skewed mix: each type half as frequent as the previous one.
    if (skewed) weight *= 0.5;
  }
  return workload::GenerateStream(options);
}

/// Byte-identity surrogate: canonical order, (start, end, substitution).
using Signature =
    std::vector<std::tuple<Timestamp, Timestamp,
                           std::vector<std::pair<VariableId, EventId>>>>;

Signature SignatureOf(std::vector<Match> matches) {
  SortMatches(&matches);
  Signature signature;
  signature.reserve(matches.size());
  for (const Match& match : matches) {
    signature.emplace_back(match.start_time(), match.end_time(),
                           match.SubstitutionKey());
  }
  return signature;
}

/// Standalone reference: one serial engine, one plan, the whole stream.
Signature StandaloneSignature(std::shared_ptr<const CompiledPlan> plan,
                              std::span<const Event> events) {
  std::vector<Match> matches;
  engine::EngineOptions options;
  options.sink = engine::CollectInto(&matches);
  Result<std::unique_ptr<engine::Engine>> engine =
      engine::CreateEngine("serial", std::move(plan), std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  Status status = (*engine)->PushBatch(events);
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = (*engine)->Flush();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return SignatureOf(std::move(matches));
}

/// Collects per-plan matches from a catalog sink.
struct DemuxCollector {
  std::map<std::string, std::vector<Match>> by_plan;

  catalog::CatalogMatchSink Sink() {
    return [this](std::string_view id, Match&& match) {
      by_plan[std::string(id)].push_back(std::move(match));
    };
  }
};

std::unique_ptr<CatalogEngine> MustEngine(std::shared_ptr<QueryCatalog> cat,
                                          CatalogOptions options) {
  Result<std::unique_ptr<CatalogEngine>> engine =
      CatalogEngine::Create(std::move(cat), std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

PlanStats StatsFor(const CatalogEngine& engine, const std::string& id) {
  for (PlanStats& row : engine.plan_stats()) {
    if (row.id == id) return row;
  }
  ADD_FAILURE() << "no plan_stats row for " << id;
  return {};
}

TEST(QueryCatalogTest, AddRemoveGenerationAndSnapshots) {
  QueryCatalog catalog;
  EXPECT_EQ(catalog.generation(), 0);
  EXPECT_EQ(catalog.size(), 0u);

  auto plan = FamilyPlan(0, {"A", "B"});
  ASSERT_TRUE(catalog.Add("q2", plan).ok());
  ASSERT_TRUE(catalog.Add("q1", plan).ok());
  EXPECT_EQ(catalog.generation(), 2);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.Contains("q1"));

  // Snapshots are sorted by id and stay valid across later mutations.
  std::shared_ptr<const catalog::CatalogSnapshot> snapshot =
      catalog.Snapshot();
  EXPECT_EQ(snapshot->generation(), 2);
  ASSERT_EQ(snapshot->size(), 2u);
  EXPECT_EQ(snapshot->entries()[0].id, "q1");
  EXPECT_EQ(snapshot->entries()[1].id, "q2");

  ASSERT_TRUE(catalog.Remove("q1").ok());
  EXPECT_EQ(catalog.generation(), 3);
  EXPECT_FALSE(catalog.Contains("q1"));
  EXPECT_EQ(snapshot->size(), 2u);  // old snapshot unchanged

  Status missing = catalog.Remove("q1");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

TEST(QueryCatalogTest, RejectsDuplicateEmptyAndMismatchedPlans) {
  QueryCatalog catalog;
  auto plan = FamilyPlan(0, {"A", "B"});
  ASSERT_TRUE(catalog.Add("q1", plan).ok());

  Status duplicate = catalog.Add("q1", FamilyPlan(1, {"A", "B"}));
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  EXPECT_EQ(catalog.Add("", plan).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.Add("q9", nullptr).code(),
            StatusCode::kInvalidArgument);

  // A plan over a different schema cannot serve the same stream.
  Result<Schema> other_schema = Schema::Create({{"K", ValueType::kInt64}});
  ASSERT_TRUE(other_schema.ok());
  Result<Pattern> other_pattern =
      ParsePattern("PATTERN {a} -> {b} WHERE a.K = 1 AND b.K = 1 WITHIN 1h",
                   *other_schema);
  ASSERT_TRUE(other_pattern.ok()) << other_pattern.status().ToString();
  Result<std::shared_ptr<const CompiledPlan>> other_plan =
      CompilePlan(*other_pattern);
  ASSERT_TRUE(other_plan.ok());
  EXPECT_EQ(catalog.Add("q2", *other_plan).code(),
            StatusCode::kInvalidArgument);

  // Remove-then-re-add under the same id is the supported replace path.
  ASSERT_TRUE(catalog.Remove("q1").ok());
  EXPECT_TRUE(catalog.Add("q1", FamilyPlan(2, {"A", "B", "C"})).ok());
}

TEST(CatalogEngineTest, RejectsBadOptions) {
  auto catalog = std::make_shared<QueryCatalog>();
  CatalogOptions no_sink;
  EXPECT_EQ(CatalogEngine::Create(catalog, std::move(no_sink)).status().code(),
            StatusCode::kInvalidArgument);
}

/// The core differential: catalog output ≡ standalone engines, plan by
/// plan, for growing catalog sizes.
TEST(CatalogEngineTest, DifferentialAgainstStandaloneEngines) {
  const std::vector<std::string> types = {"A", "B", "C", "D",
                                          "E", "F", "G", "H"};
  EventRelation stream = TypedStream(/*seed=*/17, /*events=*/3000, types);
  std::span<const Event> events(stream.events());

  for (int num_plans : {1, 10, 100}) {
    auto catalog = std::make_shared<QueryCatalog>();
    std::vector<std::shared_ptr<const CompiledPlan>> plans;
    for (int i = 0; i < num_plans; ++i) {
      plans.push_back(FamilyPlan(i, types));
      ASSERT_TRUE(
          catalog->Add("plan" + std::to_string(i), plans.back()).ok());
    }

    DemuxCollector collector;
    CatalogOptions options;
    options.sink = collector.Sink();
    auto engine = MustEngine(catalog, std::move(options));
    ASSERT_TRUE(engine->PushBatch(events).ok());
    ASSERT_TRUE(engine->Flush().ok());

    for (int i = 0; i < num_plans; ++i) {
      const std::string id = "plan" + std::to_string(i);
      Signature expected = StandaloneSignature(plans[i], events);
      Signature actual = SignatureOf(std::move(collector.by_plan[id]));
      ASSERT_EQ(actual, expected)
          << "plan " << id << " diverged (N=" << num_plans << ")";
    }
    CatalogStats stats = engine->stats();
    EXPECT_EQ(stats.events_pushed, static_cast<int64_t>(events.size()));
    EXPECT_EQ(stats.num_plans, num_plans);
    // Auto-detection must route on L: every family plan has a complete
    // equality alphabet there.
    Result<int> l_index = ChemotherapySchema().IndexOf("L");
    ASSERT_TRUE(l_index.ok());
    EXPECT_EQ(stats.type_attribute, *l_index);
    if (num_plans >= 10) {
      EXPECT_GT(stats.events_skipped_by_index, 0);
    }
    // The accounting identity: every (event, plan) pair while registered
    // is considered, index-skipped, or prefilter-skipped.
    EXPECT_EQ(stats.events_considered + stats.events_skipped_by_index +
                  stats.events_skipped_by_prefilter,
              stats.events_pushed * num_plans);
  }
}

/// Skewed type mix plus plans of mixed shape: typed plans over hot and
/// cold types, a universal plan with no alphabet on L (but an active
/// pre-filter), and the shared structures dealing with both at once.
TEST(CatalogEngineTest, DifferentialSkewedOverlapAndUniversalPlans) {
  const std::vector<std::string> types = {"A", "B", "C", "D", "E", "F"};
  EventRelation stream =
      TypedStream(/*seed=*/29, /*events=*/4000, types, /*skewed=*/true);
  std::span<const Event> events(stream.events());

  auto catalog = std::make_shared<QueryCatalog>();
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledPlan>>>
      plans;
  for (int i = 0; i < 12; ++i) {
    plans.emplace_back("typed" + std::to_string(i), FamilyPlan(i, types));
  }
  // No equality condition on L for `x` (only a V-range condition): the
  // plan has no complete alphabet and must see every event.
  plans.emplace_back(
      "universal",
      MustPlan("PATTERN {a} -> {x} WHERE a.L = 'A' AND x.V >= 20 "
               "AND a.ID = x.ID WITHIN 2h"));
  // No constant conditions on `x` at all: pre-filter inactive as well.
  plans.emplace_back(
      "unfiltered",
      MustPlan("PATTERN {a} -> {x} WHERE a.L = 'B' AND a.ID = x.ID "
               "WITHIN 1h"));
  for (const auto& [id, plan] : plans) {
    ASSERT_TRUE(catalog->Add(id, plan).ok());
  }

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));
  ASSERT_TRUE(engine->PushBatch(events).ok());
  ASSERT_TRUE(engine->Flush().ok());

  for (const auto& [id, plan] : plans) {
    Signature expected = StandaloneSignature(plan, events);
    ASSERT_EQ(SignatureOf(std::move(collector.by_plan[id])), expected)
        << "plan " << id << " diverged";
  }

  // Universal plans are never index-skipped.
  EXPECT_EQ(StatsFor(*engine, "universal").events_skipped_by_index, 0);
  EXPECT_EQ(StatsFor(*engine, "unfiltered").events_skipped_by_index, 0);
  // The unfiltered plan consults no shared bitmap either: every event
  // reaches its executor.
  EXPECT_EQ(StatsFor(*engine, "unfiltered").events_considered,
            static_cast<int64_t>(events.size()));
  // The shared table deduplicates overlapping constant conditions.
  CatalogStats stats = engine->stats();
  EXPECT_GT(stats.plan_conditions, stats.distinct_conditions);
}

TEST(CatalogEngineTest, EmptyCatalogIsANoOp) {
  auto catalog = std::make_shared<QueryCatalog>();
  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));

  EventRelation stream = TypedStream(/*seed=*/3, /*events=*/100, {"A", "B"});
  ASSERT_TRUE(engine->PushBatch(stream.events()).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_TRUE(collector.by_plan.empty());
  CatalogStats stats = engine->stats();
  EXPECT_EQ(stats.events_pushed, 100);
  EXPECT_EQ(stats.num_plans, 0);
  EXPECT_EQ(stats.matches, 0);
  EXPECT_EQ(stats.events_considered, 0);
}

TEST(CatalogEngineTest, DisjointAlphabetRecordsZeroConsidered) {
  const std::vector<std::string> stream_types = {"A", "B", "C"};
  EventRelation stream = TypedStream(/*seed=*/5, /*events=*/500, stream_types);

  auto catalog = std::make_shared<QueryCatalog>();
  // Watches types that never occur in the stream.
  ASSERT_TRUE(catalog->Add("ghost", FamilyPlan(0, {"Y", "Z"})).ok());
  ASSERT_TRUE(catalog->Add("live", FamilyPlan(0, stream_types)).ok());

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));
  ASSERT_TRUE(engine->PushBatch(stream.events()).ok());
  ASSERT_TRUE(engine->Flush().ok());

  PlanStats ghost = StatsFor(*engine, "ghost");
  EXPECT_EQ(ghost.events_considered, 0);
  EXPECT_EQ(ghost.matches, 0);
  EXPECT_EQ(ghost.events_skipped_by_index, 500);
  EXPECT_EQ(ghost.executor.events_seen, 0);
  EXPECT_GT(StatsFor(*engine, "live").events_considered, 0);
}

TEST(CatalogEngineTest, AddWhileStreamingSeesOnlyLaterEvents) {
  const std::vector<std::string> types = {"A", "B", "C"};
  EventRelation stream = TypedStream(/*seed=*/11, /*events=*/2000, types);
  std::span<const Event> events(stream.events());
  const size_t half = events.size() / 2;

  auto early = FamilyPlan(0, types);
  auto late = FamilyPlan(1, types);

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("early", early).ok());

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));

  ASSERT_TRUE(engine->PushBatch(events.subspan(0, half)).ok());
  // Mid-stream registration: takes effect at the next batch boundary.
  ASSERT_TRUE(catalog->Add("late", late).ok());
  ASSERT_TRUE(engine->PushBatch(events.subspan(half)).ok());
  ASSERT_TRUE(engine->Flush().ok());

  EXPECT_EQ(SignatureOf(std::move(collector.by_plan["early"])),
            StandaloneSignature(early, events));
  EXPECT_EQ(SignatureOf(std::move(collector.by_plan["late"])),
            StandaloneSignature(late, events.subspan(half)));
  // The late plan's accounting starts at its registration.
  PlanStats late_stats = StatsFor(*engine, "late");
  EXPECT_EQ(late_stats.events_considered + late_stats.events_skipped_by_index +
                late_stats.events_skipped_by_prefilter,
            static_cast<int64_t>(events.size() - half));
}

TEST(CatalogEngineTest, RemoveThenPushDeliversNothing) {
  const std::vector<std::string> types = {"A", "B"};
  EventRelation stream = TypedStream(/*seed=*/13, /*events=*/800, types);
  std::span<const Event> events(stream.events());

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("doomed", FamilyPlan(0, types)).ok());
  ASSERT_TRUE(catalog->Add("stays", FamilyPlan(1, types)).ok());

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));

  // Removed before the first event: the plan never sees the stream.
  ASSERT_TRUE(catalog->Remove("doomed").ok());
  ASSERT_TRUE(engine->PushBatch(events.subspan(0, 400)).ok());
  EXPECT_EQ(collector.by_plan.count("doomed"), 0u);

  // Removed mid-stream: matches already delivered stay, nothing arrives
  // afterwards — including at Flush (partial matches are discarded).
  const size_t stays_delivered = collector.by_plan["stays"].size();
  ASSERT_TRUE(catalog->Remove("stays").ok());
  ASSERT_TRUE(engine->PushBatch(events.subspan(400)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(collector.by_plan["stays"].size(), stays_delivered);
  EXPECT_EQ(engine->stats().num_plans, 0);
}

TEST(CatalogEngineTest, ResetReusesEnginesAndClearsCounters) {
  const std::vector<std::string> types = {"A", "B", "C"};
  EventRelation stream = TypedStream(/*seed=*/23, /*events=*/1000, types);
  std::span<const Event> events(stream.events());

  auto catalog = std::make_shared<QueryCatalog>();
  auto plan = FamilyPlan(0, types);
  ASSERT_TRUE(catalog->Add("q", plan).ok());

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));
  ASSERT_TRUE(engine->PushBatch(events).ok());
  ASSERT_TRUE(engine->Flush().ok());
  Signature first = SignatureOf(std::move(collector.by_plan["q"]));
  collector.by_plan.clear();

  // Push after Flush must fail until Reset, with the engine's message.
  const Status after_flush = engine->Push(events[0]);
  EXPECT_EQ(after_flush.code(), StatusCode::kFailedPrecondition);
  std::vector<Match> ignored;
  engine::EngineOptions standalone_options;
  standalone_options.sink = engine::CollectInto(&ignored);
  Result<std::unique_ptr<engine::Engine>> standalone =
      engine::CreateEngine("serial", plan, std::move(standalone_options));
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  ASSERT_TRUE((*standalone)->Flush().ok());
  EXPECT_EQ(after_flush.ToString(),
            (*standalone)->Push(events[0]).ToString());

  engine->Reset();
  EXPECT_EQ(engine->stats().events_pushed, 0);
  EXPECT_EQ(StatsFor(*engine, "q").matches, 0);
  ASSERT_TRUE(engine->PushBatch(events).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(SignatureOf(std::move(collector.by_plan["q"])), first);
}

/// `a.K = 1.0` on an INT attribute holds for K = 1, but as routing keys
/// the INT 1 and the DOUBLE 1.0 differ. So the type index must not route
/// such a plan on its alphabet: it sees every event, on the row and the
/// columnar path, and finds what a standalone engine finds.
TEST(CatalogEngineTest, DoubleLiteralOnIntAttributeSeesEveryEvent) {
  Result<Schema> schema = ParseSchemaText("ID INT, K INT");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a} -> {b} WHERE a.K = 1.0 AND b.K = 2 WITHIN 10h", *schema);
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(*pattern);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<Event> events;
  for (int64_t i = 0; i < 6; ++i) {
    events.push_back(Event(i + 1, duration::Hours(i + 1),
                           {Value(int64_t{7}), Value(i % 2 + 1)}));
  }
  const Signature expected = StandaloneSignature(*plan, events);
  ASSERT_EQ(expected.size(), 3u);

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("q", *plan).ok());
  for (bool columnar : {false, true}) {
    DemuxCollector collector;
    CatalogOptions options;
    options.sink = collector.Sink();
    auto engine = MustEngine(catalog, std::move(options));
    if (columnar) {
      ASSERT_TRUE(
          engine->PushColumnar(ColumnarBatch::FromEvents(*schema, events))
              .ok());
    } else {
      ASSERT_TRUE(engine->PushBatch(events).ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
    EXPECT_EQ(SignatureOf(std::move(collector.by_plan["q"])), expected)
        << (columnar ? "columnar" : "row") << " path";
    EXPECT_EQ(engine->stats().events_skipped_by_index, 0);
  }
}

/// PushColumnar shares each row once: every plan that binds the row holds
/// the same values block.
TEST(CatalogEngineTest, ColumnarRowIsSharedByEveryPlanThatBindsIt) {
  const Schema schema = ChemotherapySchema();
  const std::vector<Event> rows = {
      Event(1, duration::Minutes(1),
            {Value(int64_t{7}), Value("A"), Value(1.0), Value("mg")}),
      Event(2, duration::Minutes(2),
            {Value(int64_t{7}), Value("B"), Value(2.0), Value("mg")})};
  const ColumnarBatch batch = ColumnarBatch::FromEvents(schema, rows);

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("joined", FamilyPlan(0, {"A", "B"})).ok());
  ASSERT_TRUE(catalog
                  ->Add("keyed", MustPlan("PATTERN {a} -> {b} WHERE a.L = "
                                          "'A' AND b.L = 'B' AND a.ID = b.ID "
                                          "AND a.V < b.V WITHIN 1h"))
                  .ok());

  DemuxCollector collector;
  CatalogOptions options;
  options.sink = collector.Sink();
  auto engine = MustEngine(catalog, std::move(options));
  ASSERT_TRUE(engine->PushColumnar(batch).ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_EQ(collector.by_plan["joined"].size(), 1u);
  ASSERT_EQ(collector.by_plan["keyed"].size(), 1u);
  const Match& joined = collector.by_plan["joined"][0];
  const Match& keyed = collector.by_plan["keyed"][0];
  ASSERT_EQ(joined.event_ids(), (std::vector<EventId>{1, 2}));
  ASSERT_EQ(keyed.event_ids(), (std::vector<EventId>{1, 2}));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(&joined.bindings()[i].event.values(),
              &keyed.bindings()[i].event.values())
        << "row " << i;
  }
}

/// A, then B, then an A two hours before the B, all of one ID: the third
/// event goes back in time.
std::vector<Event> BackwardsStream() {
  auto event = [](EventId id, int64_t hours, const char* label) {
    return Event(id, duration::Hours(hours),
                 {Value(int64_t{7}), Value(label), Value(1.0), Value("mg")});
  };
  return {event(1, 1, "A"), event(2, 5, "B"), event(3, 3, "A")};
}

/// The catalog's stream is one ordered stream: an event that goes back in
/// time fails the call even when the plans it reaches never saw the newer
/// event (here the B, which the type index routes away from the A-only
/// plan), exactly as a standalone serial engine fails it. The in-order
/// prefix is evaluated; the backwards A reaches no plan, so the pair it
/// would have formed never matches.
TEST(CatalogEngineTest, BackwardsTimestampFailsOnEveryEntryPoint) {
  auto plan = MustPlan(
      "PATTERN {a} -> {x} WHERE a.L = 'A' AND x.L = 'A' AND a.ID = x.ID "
      "WITHIN 10h");
  const std::vector<Event> events = BackwardsStream();
  std::vector<Match> standalone_matches;
  engine::EngineOptions standalone_options;
  standalone_options.sink = engine::CollectInto(&standalone_matches);
  Result<std::unique_ptr<engine::Engine>> standalone =
      engine::CreateEngine("serial", plan, std::move(standalone_options));
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  const Status want = (*standalone)->PushBatch(events);
  ASSERT_EQ(want.code(), StatusCode::kInvalidArgument) << want.ToString();
  // Both entry points share one stream stage: the refused event is not
  // counted, and the catalog answers with the engine's code and message.
  EXPECT_EQ((*standalone)->stats().events_pushed, 2);

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("aa", plan).ok());
  for (const std::string path : {"push", "batch", "columnar"}) {
    DemuxCollector collector;
    CatalogOptions options;
    options.sink = collector.Sink();
    auto engine = MustEngine(catalog, std::move(options));
    Status status = Status::OK();
    if (path == "push") {
      for (const Event& event : events) {
        status = engine->Push(event);
        if (!status.ok()) break;
      }
    } else if (path == "batch") {
      status = engine->PushBatch(events);
    } else {
      status = engine->PushColumnar(
          ColumnarBatch::FromEvents(ChemotherapySchema(), events));
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << path << ": " << status.ToString();
    EXPECT_NE(status.message().find("out-of-order event at t=10800 (newest "
                                    "timestamp seen is t=18000"),
              std::string::npos)
        << path << ": " << status.ToString();
    EXPECT_EQ(status.ToString(), want.ToString()) << path;
    ASSERT_TRUE(engine->Flush().ok()) << path;
    EXPECT_TRUE(collector.by_plan["aa"].empty()) << path;
    EXPECT_EQ(engine->stats().events_pushed, 2) << path;
    EXPECT_EQ(StatsFor(*engine, "aa").events_skipped_by_index, 1) << path;
  }
}

/// The order check does not depend on registered plans: an empty catalog
/// rejects a backwards timestamp too, on the row and the columnar path.
TEST(CatalogEngineTest, EmptyCatalogStillChecksTimestampOrder) {
  auto catalog = std::make_shared<QueryCatalog>();
  const std::vector<Event> events = BackwardsStream();
  for (bool columnar : {false, true}) {
    DemuxCollector collector;
    CatalogOptions options;
    options.sink = collector.Sink();
    auto engine = MustEngine(catalog, std::move(options));
    const Status status =
        columnar ? engine->PushColumnar(ColumnarBatch::FromEvents(
                       ChemotherapySchema(), events))
                 : engine->PushBatch(events);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << (columnar ? "columnar" : "row") << ": " << status.ToString();
  }
}

/// A finished match is delivered by the call whose events pass its window,
/// even when the type index routes those events to no plan: A at 0, B of
/// the same ID at 10 min, then 1 000 C events over 100 h. The standalone
/// serial engine delivers the match at the first C past the hour; on
/// every entry point the catalog delivers it by the same call, not at
/// Flush.
TEST(CatalogEngineTest, FinishedMatchIsDeliveredBeforeFlushOnEveryEntryPoint) {
  auto plan = MustPlan(
      "PATTERN {a} -> {x} WHERE a.L = 'A' AND x.L = 'B' AND a.ID = x.ID "
      "WITHIN 1h");
  auto event = [](EventId id, Timestamp ts, const char* label) {
    return Event(id, ts,
                 {Value(int64_t{7}), Value(label), Value(1.0), Value("mg")});
  };
  std::vector<Event> events = {event(1, 0, "A"),
                               event(2, duration::Minutes(10), "B")};
  for (int i = 1; i <= 1000; ++i) {
    events.push_back(
        event(2 + i, duration::Minutes(10) + duration::Minutes(6) * i, "C"));
  }

  // Matches the standalone engine has delivered after each event.
  std::vector<Match> standalone_matches;
  engine::EngineOptions standalone_options;
  standalone_options.sink = engine::CollectInto(&standalone_matches);
  Result<std::unique_ptr<engine::Engine>> standalone =
      engine::CreateEngine("serial", plan, std::move(standalone_options));
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  std::vector<size_t> standalone_delivered;
  for (const Event& e : events) {
    ASSERT_TRUE((*standalone)->Push(e).ok());
    standalone_delivered.push_back(standalone_matches.size());
  }
  ASSERT_EQ(standalone_matches.size(), 1u);
  ASSERT_TRUE((*standalone)->Flush().ok());
  const Signature want = SignatureOf(std::move(standalone_matches));

  auto catalog = std::make_shared<QueryCatalog>();
  ASSERT_TRUE(catalog->Add("ab", plan).ok());
  for (const std::string path : {"push", "batch", "columnar"}) {
    DemuxCollector collector;
    CatalogOptions options;
    options.sink = collector.Sink();
    auto engine = MustEngine(catalog, std::move(options));
    if (path == "push") {
      for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_TRUE(engine->Push(events[i]).ok()) << path;
        EXPECT_EQ(collector.by_plan["ab"].size(), standalone_delivered[i])
            << path << " after event " << i;
      }
    } else if (path == "batch") {
      ASSERT_TRUE(engine->PushBatch(events).ok()) << path;
    } else {
      ASSERT_TRUE(engine
                      ->PushColumnar(ColumnarBatch::FromEvents(
                          ChemotherapySchema(), events))
                      .ok())
          << path;
    }
    EXPECT_EQ(collector.by_plan["ab"].size(), 1u) << path << " before Flush";
    ASSERT_TRUE(engine->Flush().ok()) << path;
    EXPECT_EQ(SignatureOf(std::move(collector.by_plan["ab"])), want) << path;
  }
}

}  // namespace
}  // namespace ses
