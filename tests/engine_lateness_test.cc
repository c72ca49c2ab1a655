// Bounded-lateness ingest: exec::ReorderBuffer unit behavior, the
// engine-layer ordering contract (a backwards timestamp with the default
// lateness_bound = 0 is an InvalidArgument, never silent corruption), the
// drop policy's counting, Push-after-Flush semantics, and the central
// differential proof — a relation shuffled within the bound yields the
// identical match set as in-order evaluation, for every registered engine,
// the parallel engine across thread counts, and the rebalancer on top.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/registry.h"
#include "event/relation.h"
#include "exec/reorder_buffer.h"
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
using ::ses::exec::LatePolicy;
using ::ses::exec::ParseLatePolicy;
using ::ses::exec::ReorderBuffer;
using ::ses::exec::ReorderOptions;
using ::ses::plan::CompiledPlan;
using ::ses::plan::CompilePlan;
using ::ses::workload::ChemotherapySchema;
using ::ses::workload::ShuffleWithinBound;

// ---- ReorderBuffer units --------------------------------------------------

Event At(Timestamp ts) { return Event(static_cast<EventId>(ts), ts, {}); }

std::vector<Timestamp> Times(const std::vector<Event>& events) {
  std::vector<Timestamp> out;
  out.reserve(events.size());
  for (const Event& event : events) out.push_back(event.timestamp());
  return out;
}

TEST(ReorderBuffer, InOrderStreamPassesThroughInOrder) {
  ReorderBuffer buffer(ReorderOptions{/*lateness_bound=*/5});
  std::vector<Event> released;
  for (Timestamp ts : {10, 20, 30, 40}) {
    ASSERT_TRUE(buffer.Push(At(ts), &released).ok());
  }
  // 10, 20, 30 are below 40 - 5; 40 is still within the bound's holdback.
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{10, 20, 30}));
  EXPECT_EQ(buffer.buffered(), 1u);
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{10, 20, 30, 40}));
  EXPECT_EQ(buffer.buffered(), 0u);
  EXPECT_EQ(buffer.stats().events_reordered, 0);
  EXPECT_EQ(buffer.stats().events_late, 0);
}

TEST(ReorderBuffer, WithinBoundDisorderIsResequenced) {
  ReorderBuffer buffer(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released;
  for (Timestamp ts : {10, 14, 12, 20, 17, 25, 30}) {
    ASSERT_TRUE(buffer.Push(At(ts), &released).ok());
  }
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(Times(released),
            (std::vector<Timestamp>{10, 12, 14, 17, 20, 25, 30}));
  EXPECT_EQ(buffer.stats().events_reordered, 2);  // 12 and 17
  EXPECT_EQ(buffer.stats().events_late, 0);
  EXPECT_EQ(buffer.stats().events_admitted, 7);
  EXPECT_GT(buffer.stats().max_buffered, 1);
}

TEST(ReorderBuffer, LatenessExactlyAtTheBoundIsAdmitted) {
  ReorderBuffer buffer(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released;
  ASSERT_TRUE(buffer.Push(At(100), &released).ok());
  // 90 is exactly `bound` behind max_seen = 100: must be admitted.
  ASSERT_TRUE(buffer.Push(At(90), &released).ok());
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{90, 100}));
  EXPECT_EQ(buffer.stats().events_late, 0);
}

TEST(ReorderBuffer, BeyondBoundEventIsRejectedAndStreamContinues) {
  ReorderBuffer buffer(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released;
  ASSERT_TRUE(buffer.Push(At(100), &released).ok());
  Status status = buffer.Push(At(89), &released);  // 11 > bound behind
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(buffer.stats().events_late, 1);
  // The rejection did not corrupt anything: the stream continues.
  ASSERT_TRUE(buffer.Push(At(95), &released).ok());
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{95, 100}));
}

TEST(ReorderBuffer, DropPolicyCountsWithoutFailing) {
  ReorderBuffer buffer(
      ReorderOptions{/*lateness_bound=*/10, LatePolicy::kDrop});
  std::vector<Event> released;
  ASSERT_TRUE(buffer.Push(At(100), &released).ok());
  EXPECT_TRUE(buffer.Push(At(50), &released).ok());  // dropped, not an error
  EXPECT_TRUE(buffer.Push(At(105), &released).ok());
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{100, 105}));
  EXPECT_EQ(buffer.stats().events_late, 1);
  EXPECT_EQ(buffer.stats().events_admitted, 2);
}

TEST(ReorderBuffer, DuplicateTimestampIsABoundViolation) {
  ReorderBuffer reject(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released;
  ASSERT_TRUE(reject.Push(At(10), &released).ok());
  Status status = reject.Push(At(10), &released);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(reject.stats().events_late, 1);
  ASSERT_TRUE(reject.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{10}));

  ReorderBuffer drop(ReorderOptions{/*lateness_bound=*/10, LatePolicy::kDrop});
  released.clear();
  ASSERT_TRUE(drop.Push(At(10), &released).ok());
  EXPECT_TRUE(drop.Push(At(10), &released).ok());
  ASSERT_TRUE(drop.Flush(&released).ok());
  EXPECT_EQ(Times(released), (std::vector<Timestamp>{10}));
  EXPECT_EQ(drop.stats().events_late, 1);
}

TEST(ReorderBuffer, FlushLeavesTheReleaseFloorInPlace) {
  ReorderBuffer buffer(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released;
  ASSERT_TRUE(buffer.Push(At(50), &released).ok());
  ASSERT_TRUE(buffer.Flush(&released).ok());
  EXPECT_EQ(buffer.release_floor(), 50);
  // Everything released is final: an event at or below the floor is late.
  EXPECT_EQ(buffer.Push(At(50), &released).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(buffer.Push(At(51), &released).ok());
  buffer.Reset();
  EXPECT_EQ(buffer.release_floor(), ReorderBuffer::kNoTimestamp);
  EXPECT_EQ(buffer.stats().events_late, 0);
}

TEST(ReorderBuffer, PushBatchMatchesEventAtATimePushes) {
  std::vector<Event> stream;
  for (Timestamp ts : {10, 14, 12, 20, 17, 25, 19, 30}) {
    stream.push_back(At(ts));
  }
  ReorderBuffer one(ReorderOptions{/*lateness_bound=*/10});
  ReorderBuffer batch(ReorderOptions{/*lateness_bound=*/10});
  std::vector<Event> released_one;
  std::vector<Event> released_batch;
  for (const Event& event : stream) {
    ASSERT_TRUE(one.Push(event, &released_one).ok());
  }
  ASSERT_TRUE(one.Flush(&released_one).ok());
  ASSERT_TRUE(
      batch.PushBatch(std::span<const Event>(stream), &released_batch).ok());
  ASSERT_TRUE(batch.Flush(&released_batch).ok());
  EXPECT_EQ(Times(released_one), Times(released_batch));
  EXPECT_EQ(one.stats().events_reordered, batch.stats().events_reordered);
}

TEST(ReorderBuffer, RandomWithinBoundShufflesReleaseTheOriginalSequence) {
  Random random(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Event> in_order;
    Timestamp now = 0;
    const int64_t n = 50 + static_cast<int64_t>(random.Uniform(200));
    for (int64_t i = 0; i < n; ++i) {
      now += random.UniformInt(1, 9);
      in_order.push_back(At(now));
    }
    const Duration bound = static_cast<Duration>(random.UniformInt(1, 60));
    std::vector<Event> shuffled =
        ShuffleWithinBound(in_order, bound, random.Next());
    ReorderBuffer buffer(ReorderOptions{bound});
    std::vector<Event> released;
    for (const Event& event : shuffled) {
      ASSERT_TRUE(buffer.Push(event, &released).ok())
          << "trial " << trial << " bound " << bound;
    }
    ASSERT_TRUE(buffer.Flush(&released).ok());
    EXPECT_EQ(Times(released), Times(in_order))
        << "trial " << trial << " bound " << bound;
    EXPECT_EQ(buffer.stats().events_late, 0);
  }
}

TEST(LatePolicy, ParseAndName) {
  EXPECT_TRUE(ParseLatePolicy("error").ok());
  EXPECT_EQ(*ParseLatePolicy("error"), LatePolicy::kReject);
  EXPECT_EQ(*ParseLatePolicy("REJECT"), LatePolicy::kReject);
  EXPECT_EQ(*ParseLatePolicy("drop"), LatePolicy::kDrop);
  EXPECT_FALSE(ParseLatePolicy("whatever").ok());
  EXPECT_EQ(exec::LatePolicyName(LatePolicy::kReject), "reject");
  EXPECT_EQ(exec::LatePolicyName(LatePolicy::kDrop), "drop");
}

// ---- Engine-layer contract ------------------------------------------------

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

/// Group-free pattern whose equality conditions form a complete graph on
/// ID — accepted by every engine (see engine_equivalence_test.cc).
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

std::vector<std::vector<std::pair<VariableId, EventId>>> NormalizedKeys(
    std::vector<Match> matches) {
  SortMatches(&matches);
  std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
  keys.reserve(matches.size());
  for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
  return keys;
}

std::vector<std::string> AllEngineNames() {
  std::vector<std::string> names;
  for (const EngineInfo& info : ListEngines()) names.emplace_back(info.name);
  return names;
}

std::shared_ptr<const CompiledPlan> SharedPlan() {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

Result<std::unique_ptr<Engine>> MakeEngine(const std::string& name,
                                           std::shared_ptr<const CompiledPlan>
                                               plan,
                                           std::vector<Match>* matches,
                                           EngineOptions options = {}) {
  options.sink = CollectInto(matches);
  return CreateEngine(name, std::move(plan), std::move(options));
}

TEST(EngineOrdering, BackwardsTimestampIsInvalidArgumentNotCorruption) {
  // The silent-ordering-violation regression (default lateness_bound = 0):
  // a backwards timestamp must fail loudly on every engine — before this
  // layer existed, the partitioned engine in particular accepted
  // cross-partition disorder and emitted a wrong match set.
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/11, /*partitions=*/4,
                                     /*events=*/200);
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> matches;
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine(name, plan, &matches);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    ASSERT_TRUE((*engine)->Push(stream.event(1)).ok()) << name;
    Status backwards = (*engine)->Push(stream.event(0));
    EXPECT_EQ(backwards.code(), StatusCode::kInvalidArgument)
        << name << ": " << backwards.ToString();
    // An equal timestamp is just as invalid as a smaller one.
    Status equal = (*engine)->Push(stream.event(1));
    EXPECT_EQ(equal.code(), StatusCode::kInvalidArgument)
        << name << ": " << equal.ToString();
    EXPECT_EQ((*engine)->stats().events_late, 2) << name;
    // The engine is not corrupted: the rest of the stream still works and
    // the match set equals a clean run's.
    std::span<const Event> rest(stream.events().data() + 2,
                                stream.size() - 2);
    ASSERT_TRUE((*engine)->PushBatch(rest).ok()) << name;
    ASSERT_TRUE((*engine)->Flush().ok()) << name;

    std::vector<Match> clean;
    Result<std::unique_ptr<Engine>> reference =
        MakeEngine(name, plan, &clean);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE((*reference)->Push(stream.event(1)).ok());
    ASSERT_TRUE((*reference)->PushBatch(rest).ok());
    ASSERT_TRUE((*reference)->Flush().ok());
    EXPECT_EQ(NormalizedKeys(std::move(matches)),
              NormalizedKeys(std::move(clean)))
        << name;
  }
}

TEST(EngineOrdering, BatchWithBackwardsTimestampFailsOnEveryEngine) {
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/12, /*partitions=*/4,
                                     /*events=*/50);
  // Swap two events to plant a violation inside the span.
  std::vector<Event> corrupted(stream.events().begin(),
                               stream.events().end());
  std::swap(corrupted[20], corrupted[21]);
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> matches;
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine(name, plan, &matches);
    ASSERT_TRUE(engine.ok()) << name;
    Status status =
        (*engine)->PushBatch(std::span<const Event>(corrupted));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << name << ": " << status.ToString();
    EXPECT_EQ((*engine)->stats().events_late, 1) << name;
  }
}

TEST(EngineOrdering, DropPolicySkipsViolatorsAndKeepsTheRestOfTheStream) {
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/13, /*partitions=*/4,
                                     /*events=*/300);
  // Duplicate every 10th event right after itself: each duplicate violates
  // strict ordering and must be dropped without disturbing its neighbors.
  std::vector<Event> noisy;
  int64_t planted = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    noisy.push_back(stream.event(i));
    if (i % 10 == 9) {
      noisy.push_back(stream.event(i));
      ++planted;
    }
  }
  for (const std::string& name : AllEngineNames()) {
    EngineOptions options;
    options.late_policy = LatePolicy::kDrop;
    std::vector<Match> matches;
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine(name, plan, &matches, std::move(options));
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(noisy)).ok())
        << name;
    ASSERT_TRUE((*engine)->Flush().ok()) << name;
    EXPECT_EQ((*engine)->stats().events_late, planted) << name;
    EXPECT_EQ((*engine)->stats().events_pushed,
              static_cast<int64_t>(noisy.size()))
        << name;

    std::vector<Match> clean;
    Result<std::unique_ptr<Engine>> reference =
        MakeEngine(name, plan, &clean);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(
        (*reference)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*reference)->Flush().ok());
    EXPECT_EQ(NormalizedKeys(std::move(matches)),
              NormalizedKeys(std::move(clean)))
        << name;
  }
}

TEST(EngineOrdering, PushAfterFlushIsFailedPreconditionUntilReset) {
  // engine.h documents that engines stay usable after Flush() but require
  // Reset() before a new stream; the base class pins that uniformly.
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/14, /*partitions=*/4,
                                     /*events=*/150);
  for (const std::string& name : AllEngineNames()) {
    std::vector<Match> matches;
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine(name, plan, &matches);
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    std::vector<std::vector<std::pair<VariableId, EventId>>> first =
        NormalizedKeys(std::move(matches));

    Status push = (*engine)->Push(stream.event(0));
    EXPECT_EQ(push.code(), StatusCode::kFailedPrecondition)
        << name << ": " << push.ToString();
    Status batch =
        (*engine)->PushBatch(std::span<const Event>(stream.events()));
    EXPECT_EQ(batch.code(), StatusCode::kFailedPrecondition) << name;
    // stats() must still be readable after the flush barrier.
    EXPECT_GT((*engine)->stats().events_pushed, 0) << name;

    // Reset returns the engine to a fresh state: the rerun is identical.
    matches.clear();
    (*engine)->Reset();
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok())
        << name;
    ASSERT_TRUE((*engine)->Flush().ok()) << name;
    EXPECT_EQ(NormalizedKeys(std::move(matches)), first) << name;
  }
}

// ---- The differential proof ----------------------------------------------

TEST(BoundedLateness, ShuffledStreamsMatchInOrderEvaluationOnEveryEngine) {
  // The tentpole's proof obligation: any relation shuffled within
  // `lateness_bound` yields the identical match set as in-order
  // evaluation. Engines × bounds, single-threaded configurations.
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/21, /*partitions=*/8,
                                     /*events=*/600);
  std::vector<Match> in_order;
  {
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine("serial", plan, &in_order);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
  }
  const auto expected = NormalizedKeys(std::move(in_order));
  ASSERT_FALSE(expected.empty());

  for (const Duration bound :
       {duration::Minutes(5), duration::Minutes(30), duration::Hours(2)}) {
    std::vector<Event> shuffled =
        ShuffleWithinBound(stream.events(), bound,
                           /*seed=*/static_cast<uint64_t>(bound));
    ASSERT_NE(Times(shuffled), Times(stream.events()))
        << "shuffle must actually perturb the order (bound " << bound << ")";
    for (const std::string& name : AllEngineNames()) {
      EngineOptions options;
      options.lateness_bound = bound;
      std::vector<Match> matches;
      EngineStats stats;
      Result<std::unique_ptr<Engine>> engine =
          MakeEngine(name, plan, &matches, std::move(options));
      ASSERT_TRUE(engine.ok()) << name;
      ASSERT_TRUE(
          (*engine)->PushBatch(std::span<const Event>(shuffled)).ok())
          << name << " bound " << bound;
      ASSERT_TRUE((*engine)->Flush().ok()) << name;
      stats = (*engine)->stats();
      EXPECT_EQ(NormalizedKeys(std::move(matches)), expected)
          << name << " bound " << bound;
      EXPECT_EQ(stats.events_late, 0) << name;
      EXPECT_GT(stats.events_reordered, 0) << name;
      EXPECT_GT(stats.max_reorder_buffered, 0) << name;
    }
  }
}

TEST(BoundedLateness, ParallelEngineAcrossThreadsAndRebalancer) {
  // threads {1, 2, 4, 8} × rebalancer on/off, shuffled input vs the serial
  // engine's in-order match set.
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/22, /*partitions=*/16,
                                     /*events=*/800, /*skew=*/0.8);
  std::vector<Match> in_order;
  {
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine("serial", plan, &in_order);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
  }
  const auto expected = NormalizedKeys(std::move(in_order));
  ASSERT_FALSE(expected.empty());

  const Duration bound = duration::Minutes(45);
  std::vector<Event> shuffled =
      ShuffleWithinBound(stream.events(), bound, /*seed=*/99);
  for (int threads : {1, 2, 4, 8}) {
    for (bool rebalance : {false, true}) {
      EngineOptions options;
      options.lateness_bound = bound;
      options.num_shards = threads;
      options.batch_size = 64;
      options.rebalance.enabled = rebalance;
      options.rebalance.interval_events = 64;
      std::vector<Match> matches;
      Result<std::unique_ptr<Engine>> engine =
          MakeEngine("parallel", plan, &matches, std::move(options));
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE(
          (*engine)->PushBatch(std::span<const Event>(shuffled)).ok())
          << "threads " << threads << " rebalance " << rebalance;
      ASSERT_TRUE((*engine)->Flush().ok());
      EXPECT_EQ(NormalizedKeys(std::move(matches)), expected)
          << "threads " << threads << " rebalance " << rebalance;
      EXPECT_EQ((*engine)->stats().events_late, 0);
    }
  }
}

TEST(BoundedLateness, BeyondBoundEventsAreCountedAndHandledPerPolicy) {
  std::shared_ptr<const CompiledPlan> plan = SharedPlan();
  EventRelation stream = KeyedStream(/*seed=*/23, /*partitions=*/4,
                                     /*events=*/400);
  const Duration bound = duration::Minutes(20);
  std::vector<Event> shuffled =
      ShuffleWithinBound(stream.events(), bound, /*seed=*/5);
  // Plant stragglers far beyond the bound: replay three early events at
  // the end of the stream.
  std::vector<Event> with_stragglers = shuffled;
  with_stragglers.push_back(stream.event(0));
  with_stragglers.push_back(stream.event(1));
  with_stragglers.push_back(stream.event(2));

  for (const std::string& name : AllEngineNames()) {
    // kDrop: counted, dropped, match set equals the in-bound stream's.
    EngineOptions drop;
    drop.lateness_bound = bound;
    drop.late_policy = LatePolicy::kDrop;
    std::vector<Match> drop_matches;
    Result<std::unique_ptr<Engine>> engine =
        MakeEngine(name, plan, &drop_matches, std::move(drop));
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE(
        (*engine)->PushBatch(std::span<const Event>(with_stragglers)).ok())
        << name;
    ASSERT_TRUE((*engine)->Flush().ok()) << name;
    EXPECT_EQ((*engine)->stats().events_late, 3) << name;

    EngineOptions clean_options;
    clean_options.lateness_bound = bound;
    std::vector<Match> clean;
    Result<std::unique_ptr<Engine>> reference =
        MakeEngine(name, plan, &clean, std::move(clean_options));
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(
        (*reference)->PushBatch(std::span<const Event>(shuffled)).ok());
    ASSERT_TRUE((*reference)->Flush().ok());
    EXPECT_EQ(NormalizedKeys(std::move(drop_matches)),
              NormalizedKeys(std::move(clean)))
        << name;

    // kReject: the first straggler fails the push.
    EngineOptions reject;
    reject.lateness_bound = bound;
    std::vector<Match> reject_matches;
    Result<std::unique_ptr<Engine>> strict =
        MakeEngine(name, plan, &reject_matches, std::move(reject));
    ASSERT_TRUE(strict.ok());
    Status status =
        (*strict)->PushBatch(std::span<const Event>(with_stragglers));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << name << ": " << status.ToString();
    EXPECT_GE((*strict)->stats().events_late, 1) << name;
  }
}

}  // namespace
}  // namespace ses
