// Differential tests for the engine layer: every registered engine, built
// from one shared CompiledPlan, must produce the identical normalized match
// set on the same stream — across randomized workloads, key skew, plan
// option variants, and engine reuse via Reset. Also covers the registry
// contract (names, unknown-engine and null-sink rejection), the stream
// contract on every engine and entry point (a backwards timestamp is
// InvalidArgument and is not counted, a push after Flush is
// FailedPrecondition), the compile-once guarantee, idle-key eviction in
// the partitioned engine, the parallel engine's bounded match buffering,
// and the canonical order of its incrementally emitted sink sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton_builder.h"
#include "engine/registry.h"
#include "event/columnar.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::engine::CollectInto;
using ::ses::engine::CreateEngine;
using ::ses::engine::Engine;
using ::ses::engine::EngineInfo;
using ::ses::engine::EngineOptions;
using ::ses::engine::EngineStats;
using ::ses::engine::ListEngines;
using ::ses::plan::CompiledPlan;
using ::ses::plan::CompilePlan;
using ::ses::plan::PlanOptions;
using ::ses::workload::ChemotherapySchema;

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

/// Group-free pattern whose equality conditions form a complete graph on
/// ID — accepted by every engine, the partition-pure pair included.
Pattern CompletePattern(const std::string& window = "5h") {
  return MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN " + window);
}

EventRelation KeyedStream(uint64_t seed, int partitions, int64_t events,
                          double skew = 0.0) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = partitions;
  options.key_skew = skew;
  options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(10);
  options.seed = seed;
  return workload::GenerateStream(options);
}

/// Order-normalized identity: the sorted sequence of substitution keys.
std::vector<std::vector<std::pair<VariableId, EventId>>> NormalizedKeys(
    std::vector<Match> matches) {
  SortMatches(&matches);
  std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
  keys.reserve(matches.size());
  for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
  return keys;
}

/// Runs `engine_name` from `plan` over `stream` and returns the collected
/// matches (in sink-arrival order).
std::vector<Match> RunEngine(const std::string& engine_name,
                             std::shared_ptr<const CompiledPlan> plan,
                             const EventRelation& stream,
                             EngineOptions options = {},
                             EngineStats* stats = nullptr) {
  std::vector<Match> matches;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine(engine_name, std::move(plan), std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return matches;
  Status status =
      (*engine)->PushBatch(std::span<const Event>(stream.events()));
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = (*engine)->Flush();
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (stats != nullptr) *stats = (*engine)->stats();
  return matches;
}

std::vector<std::string> AllEngineNames() {
  std::vector<std::string> names;
  for (const EngineInfo& info : ListEngines()) names.emplace_back(info.name);
  return names;
}

/// The three ingest entry points of engine::Engine.
constexpr const char* kEntryPoints[] = {"push", "batch", "columnar"};

/// Pushes `events` through `entry`: event by event (stopping at the first
/// error), as one span, or as one columnar batch.
Status PushVia(Engine& engine, const std::string& entry,
               std::span<const Event> events) {
  if (entry == "push") {
    for (const Event& event : events) SES_RETURN_IF_ERROR(engine.Push(event));
    return Status::OK();
  }
  if (entry == "batch") return engine.PushBatch(events);
  return engine.PushColumnar(
      ColumnarBatch::FromEvents(ChemotherapySchema(), events));
}

TEST(EngineRegistry, ListsAllBuiltinEngines) {
  EXPECT_EQ(AllEngineNames(),
            (std::vector<std::string>{"parallel", "partitioned", "serial"}));
}

TEST(EngineRegistry, RejectsUnknownEngineName) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  std::vector<Match> matches;
  EngineOptions options;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("no-such-engine", *plan, std::move(options));
  EXPECT_FALSE(engine.ok());
  // The error lists the registered engines to help the caller.
  EXPECT_NE(engine.status().ToString().find("serial"), std::string::npos);
}

TEST(EngineRegistry, RejectsNullSink) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  for (const std::string& name : AllEngineNames()) {
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, *plan, EngineOptions{});
    EXPECT_FALSE(engine.ok()) << name << " accepted a null sink";
  }
}

TEST(EngineEquivalence, AllEnginesAgreeOnPaperFixture) {
  // Q1 itself has a group variable and a chain equality graph, so the
  // cross-engine comparison uses a complete-graph, group-free pattern over
  // the same Figure 1 stream.
  Pattern pattern = MustParse(
      "PATTERN {c, d} -> {b} WHERE c.L = 'C' AND d.L = 'D' AND b.L = 'B' "
      "AND c.ID = d.ID AND c.ID = b.ID AND d.ID = b.ID WITHIN 264h");
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(pattern);
  ASSERT_TRUE(plan.ok());
  EventRelation stream = workload::PaperEventRelation();

  auto expected = NormalizedKeys(RunEngine("serial", *plan, stream));
  EXPECT_FALSE(expected.empty());
  for (const std::string& name : AllEngineNames()) {
    EXPECT_EQ(NormalizedKeys(RunEngine(name, *plan, stream)), expected)
        << "engine " << name;
  }
}

TEST(EngineEquivalence, DifferentialOverRandomizedWorkloads) {
  Pattern pattern = CompletePattern();
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(pattern);
  ASSERT_TRUE(plan.ok());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    // Skew 0 = uniform keys; 0.8 and 1.2 concentrate events on key 1,
    // overloading one shard of the parallel engine's static hash routing.
    for (double skew : {0.0, 0.8, 1.2}) {
      EventRelation stream = KeyedStream(seed, 24, 1200, skew);
      auto expected = NormalizedKeys(RunEngine("serial", *plan, stream));
      for (const std::string& name : AllEngineNames()) {
        EngineOptions options;
        options.num_shards = 4;
        options.batch_size = 64;
        EXPECT_EQ(NormalizedKeys(RunEngine(name, *plan, stream, options)),
                  expected)
            << "engine " << name << " seed " << seed << " skew " << skew;
      }
    }
  }
}

TEST(EngineOrdering, BackwardsTimestampIsInvalidArgumentNotCorruption) {
  // A backwards timestamp must fail loudly on every engine and entry point
  // (the partitioned engine once accepted cross-partition disorder and
  // emitted a wrong match set). The refused event is not counted and
  // reaches no evaluator, so the rest of the stream runs as if it had
  // never been sent.
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(/*seed=*/11, /*partitions=*/4,
                                     /*events=*/200);
  std::span<const Event> events(stream.events());
  std::span<const Event> rest = events.subspan(2);
  for (const std::string& name : AllEngineNames()) {
    for (const std::string entry : kEntryPoints) {
      std::vector<Match> matches;
      EngineOptions options;
      options.sink = CollectInto(&matches);
      Result<std::unique_ptr<Engine>> engine =
          CreateEngine(name, *plan, std::move(options));
      ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
      ASSERT_TRUE(PushVia(**engine, entry, events.subspan(1, 1)).ok())
          << name << " " << entry;
      Status backwards = PushVia(**engine, entry, events.subspan(0, 1));
      EXPECT_EQ(backwards.code(), StatusCode::kInvalidArgument)
          << name << " " << entry << ": " << backwards.ToString();
      // An equal timestamp is just as invalid as a smaller one.
      Status equal = PushVia(**engine, entry, events.subspan(1, 1));
      EXPECT_EQ(equal.code(), StatusCode::kInvalidArgument)
          << name << " " << entry << ": " << equal.ToString();
      EXPECT_EQ((*engine)->stats().events_pushed, 1) << name << " " << entry;
      // The engine is not corrupted: the rest of the stream still works
      // and the match set equals a clean run's.
      ASSERT_TRUE(PushVia(**engine, entry, rest).ok()) << name << " " << entry;
      ASSERT_TRUE((*engine)->Flush().ok()) << name << " " << entry;
      EXPECT_EQ((*engine)->stats().events_pushed,
                static_cast<int64_t>(rest.size()) + 1)
          << name << " " << entry;

      std::vector<Match> clean;
      EngineOptions clean_options;
      clean_options.sink = CollectInto(&clean);
      Result<std::unique_ptr<Engine>> reference =
          CreateEngine(name, *plan, std::move(clean_options));
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE((*reference)->Push(events[1]).ok());
      ASSERT_TRUE((*reference)->PushBatch(rest).ok());
      ASSERT_TRUE((*reference)->Flush().ok());
      EXPECT_EQ(NormalizedKeys(std::move(matches)),
                NormalizedKeys(std::move(clean)))
          << name << " " << entry;
    }
  }
}

TEST(EngineOrdering, BatchWithBackwardsTimestampFailsOnEveryEngine) {
  // A span with a backwards event inside: its in-order prefix is admitted
  // and evaluated, the backwards event fails the call, and nothing after
  // the prefix is counted or evaluated.
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(/*seed=*/12, /*partitions=*/4,
                                     /*events=*/50);
  // Swap two events to plant a violation inside the span: the prefix ends
  // with the later one, and the earlier one is refused.
  std::vector<Event> corrupted(stream.events().begin(),
                               stream.events().end());
  std::swap(corrupted[20], corrupted[21]);
  const std::span<const Event> prefix(corrupted.data(), 21);
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> expected;
    EngineOptions prefix_options;
    prefix_options.sink = CollectInto(&expected);
    Result<std::unique_ptr<Engine>> reference =
        CreateEngine(name, *plan, std::move(prefix_options));
    ASSERT_TRUE(reference.ok()) << name;
    ASSERT_TRUE((*reference)->PushBatch(prefix).ok()) << name;
    ASSERT_TRUE((*reference)->Flush().ok()) << name;
    for (const std::string entry : kEntryPoints) {
      std::vector<Match> matches;
      EngineOptions options;
      options.sink = CollectInto(&matches);
      Result<std::unique_ptr<Engine>> engine =
          CreateEngine(name, *plan, std::move(options));
      ASSERT_TRUE(engine.ok()) << name;
      Status status = PushVia(**engine, entry, corrupted);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << " " << entry << ": " << status.ToString();
      EXPECT_EQ((*engine)->stats().events_pushed,
                static_cast<int64_t>(prefix.size()))
          << name << " " << entry;
      ASSERT_TRUE((*engine)->Flush().ok()) << name << " " << entry;
      EXPECT_EQ(NormalizedKeys(std::move(matches)), NormalizedKeys(expected))
          << name << " " << entry;
    }
  }
}

TEST(EngineOrdering, PushAfterFlushIsFailedPreconditionUntilReset) {
  // engine.h documents that engines stay usable after Flush() but require
  // Reset() before a new stream; the stream stage pins that uniformly.
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(/*seed=*/14, /*partitions=*/4,
                                     /*events=*/150);
  std::span<const Event> events(stream.events());
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> matches;
    EngineOptions options;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, *plan, std::move(options));
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE((*engine)->PushBatch(events).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    auto first = NormalizedKeys(std::move(matches));

    for (const std::string entry : kEntryPoints) {
      Status status = PushVia(**engine, entry, events);
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
          << name << " " << entry << ": " << status.ToString();
    }
    // stats() must still be readable after the flush barrier, and the
    // refused pushes are not counted.
    EXPECT_EQ((*engine)->stats().events_pushed,
              static_cast<int64_t>(events.size()))
        << name;

    // Reset returns the engine to a fresh state: the rerun is identical,
    // on every entry point.
    for (const std::string entry : kEntryPoints) {
      matches.clear();
      (*engine)->Reset();
      ASSERT_TRUE(PushVia(**engine, entry, events).ok()) << name << " "
                                                         << entry;
      ASSERT_TRUE((*engine)->Flush().ok()) << name << " " << entry;
      EXPECT_EQ(NormalizedKeys(std::move(matches)), first)
          << name << " " << entry;
    }
  }
}

TEST(EngineEquivalence, PlanOptionVariantsDoNotChangeTheMatchSet) {
  Pattern pattern = CompletePattern();
  EventRelation stream = KeyedStream(7, 16, 1000);
  Result<std::shared_ptr<const CompiledPlan>> baseline =
      CompilePlan(pattern);
  ASSERT_TRUE(baseline.ok());
  auto expected = NormalizedKeys(RunEngine("serial", *baseline, stream));

  for (bool prefilter : {true, false}) {
    PlanOptions options;
    options.enable_prefilter = prefilter;
    Result<std::shared_ptr<const CompiledPlan>> plan =
        CompilePlan(pattern, options);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(*plan != nullptr && (*plan)->shared_prefilter() != nullptr,
              prefilter);
    for (const std::string& name : AllEngineNames()) {
      EXPECT_EQ(NormalizedKeys(RunEngine(name, *plan, stream)), expected)
          << "engine " << name << " prefilter " << prefilter;
    }
  }
}

TEST(EngineEquivalence, ResetMakesEnginesReusable) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(11, 16, 800);
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> matches;
    EngineOptions options;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, *plan, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    auto first = NormalizedKeys(std::move(matches));
    EXPECT_FALSE(first.empty()) << "engine " << name;

    matches.clear();
    (*engine)->Reset();
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    EXPECT_EQ(NormalizedKeys(std::move(matches)), first)
        << "engine " << name << " after Reset";
  }
}

TEST(CompiledPlan, SharedAcrossEnginesCompilesOnce) {
  Pattern pattern = CompletePattern();
  int64_t before = AutomatonBuilder::builds_started();
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(pattern);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(AutomatonBuilder::builds_started() - before, 1);

  // The engines add zero builds on top of the plan's one.
  std::vector<Match> matches;
  for (const char* name : {"serial", "partitioned", "parallel"}) {
    EngineOptions options;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, *plan, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  }
  EXPECT_EQ(AutomatonBuilder::builds_started() - before, 1);
}

TEST(CompiledPlan, DetectsAndValidatesPartitionAttribute) {
  // Auto-detection on a complete-graph pattern finds ID (attribute 0).
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->has_partition_attribute());
  EXPECT_EQ((*plan)->partition_attribute(), 0);

  // A chain equality graph (Q1-style) is not partitionable: the plan still
  // compiles, but the partition-pure engines refuse it.
  Pattern chain = MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND b.ID = x.ID WITHIN 5h");
  Result<std::shared_ptr<const CompiledPlan>> chain_plan = CompilePlan(chain);
  ASSERT_TRUE(chain_plan.ok());
  EXPECT_FALSE((*chain_plan)->has_partition_attribute());
  std::vector<Match> matches;
  for (const char* name : {"partitioned", "parallel"}) {
    EngineOptions options;
    options.sink = CollectInto(&matches);
    EXPECT_FALSE(CreateEngine(name, *chain_plan, std::move(options)).ok())
        << name << " accepted a non-partitionable plan";
  }
}

/// {a} -> {x} keyed on ID with a one-hour window: the plan of both
/// eviction tests below.
std::shared_ptr<const CompiledPlan> OneHourPairPlan() {
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(MustParse(
      "PATTERN {a} -> {x} WHERE a.L = 'A' AND x.L = 'B' AND a.ID = x.ID "
      "WITHIN 1h"));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

void AppendEvent(EventRelation* relation, Timestamp t, int64_t id,
                 const std::string& type) {
  relation->AppendUnchecked(
      t, {Value(id), Value(type), Value(0.0), Value(std::string("u"))});
}

/// The serial engine and the engine that evaluates each key alone.
constexpr const char* kInlineEngines[] = {"serial", "partitioned"};

/// Pushes the whole of `stream` in one call: PushBatch, or PushColumnar.
Status PushWhole(Engine& engine, const EventRelation& stream, bool columnar) {
  std::span<const Event> events(stream.events());
  if (!columnar) return engine.PushBatch(events);
  return engine.PushColumnar(
      ColumnarBatch::FromEvents(stream.schema(), events));
}

/// Key 7 completes a match at 10 min and never sends again; then 1 000
/// events follow, one every 6 min, of keys `first_key`..`last_key` in turn.
/// The plan's filter drops all of them ('C' binds no variable).
EventRelation IdleKeyStream(int64_t first_key, int64_t last_key) {
  EventRelation stream(ChemotherapySchema());
  AppendEvent(&stream, 0, 7, "A");
  AppendEvent(&stream, duration::Minutes(10), 7, "B");
  for (int64_t i = 1; i <= 1000; ++i) {
    AppendEvent(&stream, duration::Minutes(10 + 6 * i),
                first_key + i % (last_key - first_key + 1), "C");
  }
  return stream;
}

TEST(EngineEviction, IdleKeysFinishedMatchArrivesBeforeFlush) {
  // Key 8 keeps the stream going with events the filter drops. The serial
  // engine delivers key 7's match once the window has passed; the
  // partitioned engine must too, by evicting key 7, not hold it until
  // Flush. Both ingest layouts advance the clock on a dropped event.
  std::shared_ptr<const CompiledPlan> plan = OneHourPairPlan();
  EventRelation stream = IdleKeyStream(8, 8);
  for (const std::string name : kInlineEngines) {
    for (bool columnar : {false, true}) {
      const std::string label =
          name + (columnar ? " PushColumnar" : " PushBatch");
      std::vector<Match> matches;
      EngineOptions options;
      options.sink = CollectInto(&matches);
      Result<std::unique_ptr<Engine>> engine =
          CreateEngine(name, plan, std::move(options));
      ASSERT_TRUE(engine.ok()) << label << ": " << engine.status().ToString();
      ASSERT_TRUE(PushWhole(**engine, stream, columnar).ok()) << label;
      EXPECT_EQ(matches.size(), 1u) << label << " held the match until Flush";
      EngineStats before_flush = (*engine)->stats();
      EXPECT_LE(before_flush.num_partitions, 1) << label;
      ASSERT_TRUE((*engine)->Flush().ok());
      EXPECT_EQ(matches.size(), 1u) << label;
      EngineStats stats = (*engine)->stats();
      EXPECT_EQ(stats.matches_emitted_early, 1) << label;
      EXPECT_LE(stats.max_buffered_matches, 1) << label;
    }
  }
}

TEST(EngineEviction, DroppedEventsMakeNoPartition) {
  // The events of keys 8–57 are all dropped by the plan's filter: they
  // must neither create nor refresh a partition, on either layout, yet
  // their timestamps still evict key 7 with its match before Flush.
  std::shared_ptr<const CompiledPlan> plan = OneHourPairPlan();
  EventRelation stream = IdleKeyStream(8, 57);
  for (bool columnar : {false, true}) {
    const std::string label = columnar ? "PushColumnar" : "PushBatch";
    std::vector<Match> matches;
    EngineOptions options;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine("partitioned", plan, std::move(options));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(PushWhole(**engine, stream, columnar).ok()) << label;
    EXPECT_EQ(matches.size(), 1u) << label << " held the match until Flush";
    EngineStats stats = (*engine)->stats();
    EXPECT_EQ(stats.events_filtered, 1000) << label;
    EXPECT_EQ(stats.num_partitions, 0) << label;
    EXPECT_EQ(stats.partitions_evicted, 1) << label << ": only key 7";
  }
}

TEST(EngineEviction, ResidentPartitionsStayWithinOneWindow) {
  // 20 000 keys seen once each, one event a minute, pushed 256 at a time:
  // only the keys of the last hour may stay resident, and the partitioned
  // engine's instance peak must match a one-hour window, not the stream.
  std::shared_ptr<const CompiledPlan> plan = OneHourPairPlan();
  constexpr int64_t kKeys = 20000;
  EventRelation stream(ChemotherapySchema());
  for (int64_t key = 0; key < kKeys; ++key) {
    AppendEvent(&stream, duration::Minutes(key), key, "A");
  }
  std::span<const Event> events(stream.events());
  for (const std::string name : kInlineEngines) {
    std::vector<Match> matches;
    EngineOptions options;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, plan, std::move(options));
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    for (size_t pos = 0; pos < events.size(); pos += 256) {
      ASSERT_TRUE((*engine)
                      ->PushBatch(events.subspan(
                          pos, std::min<size_t>(256, events.size() - pos)))
                      .ok());
    }
    EngineStats stats = (*engine)->stats();
    // The keys of minutes [now - 60, now].
    EXPECT_LE(stats.num_partitions, 61) << name;
    // Those 61 and, for the partitioned engine, the key an event created
    // before the eviction that follows it.
    EXPECT_LE(stats.max_simultaneous_instances, 62) << name;
    if (name == "partitioned") {
      EXPECT_EQ(stats.partitions_evicted, kKeys - stats.num_partitions);
    }
    ASSERT_TRUE((*engine)->Flush().ok());
    EXPECT_TRUE(matches.empty()) << name;
    EXPECT_EQ((*engine)->stats().max_buffered_matches, 0) << name;
  }
}

TEST(ParallelEngine, BoundsMatchBufferingOnLongStreams) {
  // A long stream with a short window: with incremental watermark-bounded
  // emission, matches must reach the sink while the stream is running, and
  // the peak resident match buffer must stay far below the total.
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern("4h"));
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(3, 8, 20000);

  std::vector<Match> matches;
  int64_t seen_before_flush = 0;
  EngineOptions options;
  options.num_shards = 4;
  options.batch_size = 64;
  // Keep the shard queues shallow: the resident-match bound is (queue
  // backlog + watermark lag), and a deep queue lets the ingest thread run
  // the whole stream ahead of the workers.
  options.queue_capacity = 2;
  options.emit_interval_events = 512;
  options.sink = [&](Match&& match) { matches.push_back(std::move(match)); };
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("parallel", *plan, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(
      (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
  seen_before_flush = static_cast<int64_t>(matches.size());
  ASSERT_TRUE((*engine)->Flush().ok());

  EngineStats stats = (*engine)->stats();
  ASSERT_GT(static_cast<int64_t>(matches.size()), 0);
  EXPECT_GT(seen_before_flush, 0)
      << "no incremental emission before the flush barrier";
  EXPECT_EQ(stats.matches_emitted_early, seen_before_flush);
  EXPECT_EQ(stats.matches_emitted, static_cast<int64_t>(matches.size()));
  // The bounded buffer is the point: the peak resident match count must be
  // a small fraction of everything the stream produced.
  EXPECT_LT(stats.max_buffered_matches,
            static_cast<int64_t>(matches.size()) / 2)
      << "max_buffered " << stats.max_buffered_matches << " of "
      << matches.size();

  // Cross-check the stream's result against the serial engine.
  auto expected = NormalizedKeys(RunEngine("serial", *plan, stream));
  EXPECT_EQ(NormalizedKeys(std::move(matches)), expected);
}

TEST(ParallelEngine, SinkSequenceIsCanonicallyOrdered) {
  // The incremental prefix plus the flush remainder must form exactly the
  // canonical SortMatches order — no later emission may sort before an
  // earlier one (docs/SEMANTICS.md §8).
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern("3h"));
  ASSERT_TRUE(plan.ok());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EventRelation stream = KeyedStream(seed, 32, 8000);
    EngineOptions options;
    options.num_shards = 3;
    options.batch_size = 32;
    // Shallow queues keep the workers' published watermarks close to the
    // ingest frontier, so early emission happens deterministically.
    options.queue_capacity = 2;
    options.emit_interval_events = 256;
    EngineStats stats;
    std::vector<Match> emitted =
        RunEngine("parallel", *plan, stream, std::move(options), &stats);
    EXPECT_GT(stats.matches_emitted_early, 0) << "seed " << seed;
    EXPECT_TRUE(std::is_sorted(emitted.begin(), emitted.end(),
                               MatchOrderLess))
        << "sink sequence out of canonical order, seed " << seed;
    std::vector<Match> sorted = emitted;
    SortMatches(&sorted);
    EXPECT_EQ(NormalizedKeys(std::move(emitted)),
              NormalizedKeys(std::move(sorted)));
  }
}

}  // namespace
}  // namespace ses
