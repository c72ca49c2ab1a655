// Differential tests for the engine layer: every registered engine, built
// from one shared CompiledPlan, must produce the identical normalized match
// set on the same stream — across randomized workloads, key skew, plan
// option variants, and engine reuse via Reset. Also covers the registry
// contract (names, unknown-engine and null-sink rejection), the
// compile-once guarantee, the parallel engine's bounded match buffering,
// and the canonical order of its incrementally emitted sink sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton_builder.h"
#include "engine/registry.h"
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
      // The parallel engine again with adaptive rebalancing on: key
      // migrations must never change the match set.
      EngineOptions options;
      options.num_shards = 4;
      options.batch_size = 64;
      options.rebalance.enabled = true;
      // Aggressive cadence and thresholds so migrations actually fire
      // within 1200 events.
      options.rebalance.interval_events = 128;
      options.rebalance.hi_imbalance = 1.2;
      options.rebalance.lo_imbalance = 1.05;
      EXPECT_EQ(NormalizedKeys(RunEngine("parallel", *plan, stream, options)),
                expected)
          << "parallel+rebalance seed " << seed << " skew " << skew;
    }
  }
}

TEST(EngineEquivalence, WithinBoundShufflesAgreeWithInOrderEvaluation) {
  // The bounded-lateness reorder stage must make a stream shuffled within
  // the bound indistinguishable from the in-order stream: every engine,
  // with and without the rebalancer, must reproduce in-order serial
  // evaluation exactly.
  Pattern pattern = CompletePattern();
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(pattern);
  ASSERT_TRUE(plan.ok());

  auto run_shuffled = [&](const std::string& name,
                          std::span<const Event> events,
                          EngineOptions options) {
    std::vector<Match> matches;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine(name, *plan, std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return NormalizedKeys({});
    Status status = (*engine)->PushBatch(events);
    EXPECT_TRUE(status.ok()) << status.ToString();
    status = (*engine)->Flush();
    EXPECT_TRUE(status.ok()) << status.ToString();
    return NormalizedKeys(std::move(matches));
  };

  for (uint64_t seed = 11; seed <= 12; ++seed) {
    for (double skew : {0.0, 0.8}) {
      EventRelation stream = KeyedStream(seed, 24, 1200, skew);
      auto expected = NormalizedKeys(RunEngine("serial", *plan, stream));
      for (Duration bound : {duration::Minutes(5), duration::Hours(1)}) {
        std::vector<Event> shuffled = workload::ShuffleWithinBound(
            stream.events(), bound, seed * 977 + bound);
        for (const std::string& name : AllEngineNames()) {
          EngineOptions options;
          options.lateness_bound = bound;
          options.num_shards = 4;
          options.batch_size = 64;
          EXPECT_EQ(run_shuffled(name, shuffled, options), expected)
              << "engine " << name << " seed " << seed << " skew " << skew
              << " bound " << bound;
        }
        EngineOptions options;
        options.lateness_bound = bound;
        options.num_shards = 4;
        options.batch_size = 64;
        options.rebalance.enabled = true;
        options.rebalance.interval_events = 128;
        options.rebalance.hi_imbalance = 1.2;
        options.rebalance.lo_imbalance = 1.05;
        EXPECT_EQ(run_shuffled("parallel", shuffled, options), expected)
            << "parallel+rebalance seed " << seed << " skew " << skew
            << " bound " << bound;
      }
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
    for (bool shared_const : {true, false}) {
      PlanOptions options;
      options.enable_prefilter = prefilter;
      options.shared_constant_evaluation = shared_const;
      Result<std::shared_ptr<const CompiledPlan>> plan =
          CompilePlan(pattern, options);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(*plan != nullptr && (*plan)->shared_prefilter() != nullptr,
                prefilter);
      for (const std::string& name : AllEngineNames()) {
        EXPECT_EQ(NormalizedKeys(RunEngine(name, *plan, stream)), expected)
            << "engine " << name << " prefilter " << prefilter
            << " shared_const " << shared_const;
      }
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

  // Explicitly requesting ID succeeds; a non-qualifying attribute fails.
  PlanOptions explicit_id;
  explicit_id.partition_attribute = 0;
  EXPECT_TRUE(CompilePlan(CompletePattern(), explicit_id).ok());
  PlanOptions wrong;
  wrong.partition_attribute = 1;  // L: no equality graph on it
  EXPECT_FALSE(CompilePlan(CompletePattern(), wrong).ok());

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
