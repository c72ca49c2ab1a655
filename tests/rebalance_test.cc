// Tests for batched ingest (PushBatch / RunRelation / BatchQueue::PushAll)
// and the adaptive shard rebalancer: byte-identical output vs the serial
// matcher on skewed (Zipf) key distributions for every thread count with
// rebalancing on and off, routing-table mechanics (including the
// re-validation that rejects bad planned moves), Reset-based reuse, and
// the slab queue primitive. Runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/partitioned.h"
#include "exec/batch_queue.h"
#include "exec/parallel_partitioned.h"
#include "exec/rebalancer.h"
#include "query/parser.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses::exec {

/// Hands ShardRebalancer::ApplyPlan arbitrary plans, standing in for a
/// buggy policy.
class ShardRebalancerTestPeer {
 public:
  static void ApplyPlan(ShardRebalancer* rebalancer, const MigrationPlan& plan,
                        Timestamp watermark) {
    rebalancer->ApplyPlan(plan, watermark);
  }
};

}  // namespace ses::exec

namespace ses {
namespace {

using ::ses::exec::BatchQueue;
using ::ses::exec::EventBatch;
using ::ses::exec::Migration;
using ::ses::exec::MigrationPlan;
using ::ses::exec::ParallelOptions;
using ::ses::exec::ParallelPartitionedMatcher;
using ::ses::exec::ParallelStats;
using ::ses::exec::RebalanceOptions;
using ::ses::exec::ShardRebalancer;
using ::ses::exec::ShardRebalancerTestPeer;
using ::ses::workload::ChemotherapySchema;

Pattern CompletePattern(const char* window = "5h") {
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN " +
          std::string(window),
      ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

EventRelation SkewedStream(uint64_t seed, double skew, int keys,
                           int64_t events) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = keys;
  options.key_skew = skew;
  options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(10);
  options.seed = seed;
  return workload::GenerateStream(options);
}

/// The emitted order itself (no re-sorting): byte-identical output means
/// this sequence matches the sorted serial result exactly.
std::vector<std::vector<std::pair<VariableId, EventId>>> EmittedKeys(
    const std::vector<Match>& matches) {
  std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
  keys.reserve(matches.size());
  for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
  return keys;
}

TEST(BatchedIngest, SkewEquivalenceAcrossThreadCountsAndRebalancing) {
  Pattern pattern = CompletePattern();
  for (double skew : {0.0, 1.2}) {
    EventRelation stream = SkewedStream(/*seed=*/21, skew, 64, 2000);
    Result<std::vector<Match>> serial = MatchRelation(pattern, stream);
    ASSERT_TRUE(serial.ok());
    SortMatches(&*serial);
    auto expected = EmittedKeys(*serial);

    for (int threads : {1, 2, 4, 8}) {
      for (bool rebalance : {false, true}) {
        ParallelOptions options;
        options.num_shards = threads;
        options.batch_size = 32;
        options.rebalance.enabled = rebalance;
        // Aggressive cadence so migrations actually happen in a small run.
        options.rebalance.interval_events = 128;
        Result<ParallelPartitionedMatcher> matcher =
            ParallelPartitionedMatcher::Create(pattern, /*attribute=*/0,
                                               options);
        ASSERT_TRUE(matcher.ok());
        ASSERT_TRUE(
            matcher->PushBatch(std::span<const Event>(stream.events()))
                .ok());
        std::vector<Match> matches;
        ASSERT_TRUE(matcher->Flush(&matches).ok());
        // Byte-identical emitted order, independent of shard count and of
        // the rebalancer's timing-dependent migration decisions.
        EXPECT_EQ(EmittedKeys(matches), expected)
            << "skew " << skew << " threads " << threads << " rebalance "
            << rebalance;
      }
    }
  }
}

/// Stream whose working key set turns over completely every phase: phase p
/// draws keys Zipf-skewed from [p*churn+1, p*churn+live], so keys are born
/// hot, cool off within one phase, slip past the pattern window, and become
/// migration (then pruning) candidates while the stream keeps flowing.
EventRelation ChurnStream(uint64_t seed, int phases, int live, int churn,
                          int64_t events_per_phase) {
  EventRelation stream(ChemotherapySchema());
  Random random(seed);
  ZipfDistribution zipf(live, /*s=*/1.2);
  const char* types[] = {"A", "B", "X", "N"};
  Timestamp t = 0;
  for (int p = 0; p < phases; ++p) {
    int64_t base = static_cast<int64_t>(p) * churn;
    for (int64_t i = 0; i < events_per_phase; ++i) {
      t += duration::Minutes(random.UniformInt(1, 5));
      int64_t key = base + zipf.Sample(random);
      stream.AppendUnchecked(
          t, {Value(key), Value(std::string(types[random.Index(4)])),
              Value(static_cast<double>(random.UniformInt(0, 99))),
              Value(std::string("u"))});
    }
  }
  return stream;
}

TEST(BatchedIngest, ChurnStressEquivalenceAcrossPoliciesAndThreads) {
  Pattern pattern = CompletePattern();
  // 8 full key-set turnovers; each phase spans ~450 simulated minutes, so
  // the previous phase's keys pass the 5h idleness horizon mid-phase while
  // migration rounds keep firing every 64 events.
  EventRelation stream = ChurnStream(/*seed=*/77, /*phases=*/8, /*live=*/12,
                                     /*churn=*/12, /*events_per_phase=*/150);
  Result<std::vector<Match>> serial = MatchRelation(pattern, stream);
  ASSERT_TRUE(serial.ok());
  SortMatches(&*serial);
  auto expected = EmittedKeys(*serial);

  for (int threads : {2, 4, 8}) {
    ParallelOptions options;
    options.num_shards = threads;
    options.batch_size = 16;
    options.rebalance.enabled = true;
    // Aggressive cadence and thresholds so rapid key turnover actually
    // exercises migration, cooldown, and pruning in a 1200-event run.
    options.rebalance.interval_events = 64;
    options.rebalance.hi_imbalance = 1.10;
    options.rebalance.lo_imbalance = 1.02;
    Result<ParallelPartitionedMatcher> matcher =
        ParallelPartitionedMatcher::Create(pattern, /*attribute=*/0, options);
    ASSERT_TRUE(matcher.ok());
    ASSERT_TRUE(
        matcher->PushBatch(std::span<const Event>(stream.events())).ok());
    std::vector<Match> matches;
    ASSERT_TRUE(matcher->Flush(&matches).ok());
    // Byte-identical output no matter how many keys churned, migrated, or
    // were pruned along the way.
    EXPECT_EQ(EmittedKeys(matches), expected) << "threads " << threads;
    // Sampling cadence is event-count driven, hence deterministic even
    // though the migration decisions themselves depend on timing.
    EXPECT_GT(matcher->stats().rebalancer.rounds, 0);
  }
}

TEST(BatchedIngest, PushBatchMatchesPerEventPush) {
  Pattern pattern = CompletePattern();
  EventRelation stream = SkewedStream(/*seed=*/7, 1.0, 32, 1200);
  ParallelOptions options;
  options.num_shards = 4;
  options.batch_size = 16;

  Result<ParallelPartitionedMatcher> per_event =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(per_event.ok());
  for (const Event& e : stream) ASSERT_TRUE(per_event->Push(e).ok());
  std::vector<Match> expected;
  ASSERT_TRUE(per_event->Flush(&expected).ok());

  // Whole relation in one span, and again in mixed spans + single pushes.
  Result<ParallelPartitionedMatcher> batched =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(
      batched->PushBatch(std::span<const Event>(stream.events())).ok());
  std::vector<Match> got;
  ASSERT_TRUE(batched->Flush(&got).ok());
  EXPECT_EQ(EmittedKeys(got), EmittedKeys(expected));

  Result<ParallelPartitionedMatcher> mixed =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(mixed.ok());
  std::span<const Event> all(stream.events());
  size_t third = all.size() / 3;
  ASSERT_TRUE(mixed->PushBatch(all.subspan(0, third)).ok());
  for (const Event& e : all.subspan(third, third)) {
    ASSERT_TRUE(mixed->Push(e).ok());
  }
  ASSERT_TRUE(mixed->PushBatch(all.subspan(2 * third)).ok());
  std::vector<Match> mixed_matches;
  ASSERT_TRUE(mixed->Flush(&mixed_matches).ok());
  EXPECT_EQ(EmittedKeys(mixed_matches), EmittedKeys(expected));
}

TEST(BatchedIngest, RunRelationValidatesAndFeedsTheWholeRelation) {
  Pattern pattern = CompletePattern();
  EventRelation stream = SkewedStream(/*seed=*/13, 0.0, 24, 900);
  ParallelOptions options;
  options.num_shards = 2;
  options.batch_size = 8;
  Result<ParallelPartitionedMatcher> matcher =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(matcher.ok());
  ASSERT_TRUE(matcher->RunRelation(stream).ok());
  std::vector<Match> got;
  ASSERT_TRUE(matcher->Flush(&got).ok());
  EXPECT_EQ(matcher->stats().events_ingested,
            static_cast<int64_t>(stream.size()));

  Result<std::vector<Match>> serial = MatchRelation(pattern, stream);
  ASSERT_TRUE(serial.ok());
  SortMatches(&*serial);
  EXPECT_EQ(EmittedKeys(got), EmittedKeys(*serial));
}

TEST(BatchedIngest, PushBatchRejectsNonIncreasingTimestamps) {
  Pattern pattern = CompletePattern();
  EventRelation stream(ChemotherapySchema());
  auto add = [&stream](Timestamp t) {
    stream.AppendUnchecked(
        t, {Value(int64_t{1}), Value(std::string("A")), Value(0.0),
            Value(std::string("u"))});
  };
  add(10);
  add(20);
  ParallelOptions options;
  options.num_shards = 2;
  Result<ParallelPartitionedMatcher> matcher =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(matcher.ok());
  ASSERT_TRUE(matcher->PushBatch(std::span<const Event>(stream.events())).ok());
  // Replaying the same span violates the cross-call watermark.
  EXPECT_EQ(matcher->PushBatch(std::span<const Event>(stream.events())).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BatchedIngest, ResetClearsRebalancerStateForReuse) {
  Pattern pattern = CompletePattern();
  EventRelation stream = SkewedStream(/*seed=*/31, 1.2, 48, 1500);
  ParallelOptions options;
  options.num_shards = 4;
  options.batch_size = 16;
  options.rebalance.enabled = true;
  options.rebalance.interval_events = 64;
  Result<ParallelPartitionedMatcher> matcher =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(matcher.ok());

  ASSERT_TRUE(matcher->RunRelation(stream).ok());
  std::vector<Match> first;
  ASSERT_TRUE(matcher->Flush(&first).ok());
  EXPECT_GT(matcher->stats().rebalancer.rounds, 0);

  matcher->Reset();
  // Reset drops the override table and all rebalancer statistics: a new
  // relation starts from pure hash routing, so a replay is reproducible.
  ASSERT_TRUE(matcher->RunRelation(stream).ok());
  std::vector<Match> second;
  ASSERT_TRUE(matcher->Flush(&second).ok());
  EXPECT_EQ(EmittedKeys(first), EmittedKeys(second));
}

/// Options for the ShardRebalancerUnit tests, which drive single keys
/// through the routing table. A lone key carries all of its shard's work,
/// and the policy never moves a shard's hot key; a hot-key fraction above
/// 1 keeps hot-key mode off so that lone key may migrate.
RebalanceOptions UnitOptions() {
  RebalanceOptions options;
  options.enabled = true;
  options.hot_key_fraction = 2.0;
  return options;
}

TEST(ShardRebalancerUnit, MigratesIdleKeysOffTheDeepestShard) {
  RebalanceOptions options = UnitOptions();
  options.interval_events = 1;
  ShardRebalancer rebalancer(/*num_shards=*/2, /*window=*/10, options);

  Value key(int64_t{42});
  int home = rebalancer.RouteAndObserve(key, /*hash=*/42, /*timestamp=*/5);
  int other = 1 - home;

  // The key's home shard is deep; the key is NOT yet idle (watermark 10 <
  // last_seen 5 + window 10), so it must not move.
  std::vector<ShardRebalancer::ShardLoad> loads(2);
  loads[static_cast<size_t>(home)] = {100, 1000000};
  rebalancer.Sample(loads, /*watermark=*/10);
  EXPECT_EQ(rebalancer.RouteAndObserve(key, 42, 11), home);
  EXPECT_EQ(rebalancer.stats().keys_migrated, 0);

  // Past the idleness horizon the key migrates to the shallow shard, and
  // the override table routes it there from now on.
  rebalancer.Sample(loads, /*watermark=*/50);
  EXPECT_EQ(rebalancer.stats().keys_migrated, 1);
  EXPECT_EQ(rebalancer.stats().overrides_active, 1);
  EXPECT_EQ(rebalancer.RouteAndObserve(key, 42, 51), other);
}

TEST(ShardRebalancerUnit, BalancedShardsDoNotMigrate) {
  ShardRebalancer rebalancer(2, /*window=*/10, UnitOptions());
  Value key(int64_t{7});
  int home = rebalancer.RouteAndObserve(key, 7, 1);
  std::vector<ShardRebalancer::ShardLoad> loads = {{10, 100}, {10, 100}};
  rebalancer.Sample(loads, /*watermark=*/1000);
  EXPECT_EQ(rebalancer.stats().keys_migrated, 0);
  // (The long-idle key was pruned, but pruning keeps hash routing.)
  EXPECT_EQ(rebalancer.RouteAndObserve(key, 7, 1001), home);
}

TEST(ShardRebalancerUnit, LongIdleOverridesArePrunedBackToHomeShard) {
  ShardRebalancer rebalancer(2, /*window=*/10, UnitOptions());
  Value key(int64_t{3});
  int home = rebalancer.RouteAndObserve(key, 3, 5);
  std::vector<ShardRebalancer::ShardLoad> loads(2);
  loads[static_cast<size_t>(home)] = {100, 1000000};
  rebalancer.Sample(loads, /*watermark=*/30);  // idle -> migrates
  ASSERT_EQ(rebalancer.stats().overrides_active, 1);
  // Four windows beyond last_seen the entry is dropped entirely and the
  // key reverts to its hash shard.
  std::vector<ShardRebalancer::ShardLoad> balanced = {{1, 100}, {1, 100}};
  rebalancer.Sample(balanced, /*watermark=*/500);
  EXPECT_EQ(rebalancer.stats().overrides_active, 0);
  EXPECT_EQ(rebalancer.RouteAndObserve(key, 3, 501), home);
}

TEST(ShardRebalancerUnit, ApplyPlanRejectsMovesThatAreNotSafe) {
  ShardRebalancer rebalancer(/*num_shards=*/3, /*window=*/10, UnitOptions());
  // At watermark 50 key 3 (home shard 0, last seen at 5) is idle; key 4
  // (home shard 1, last seen at 45) is still inside the window.
  Value idle(int64_t{3});
  Value busy(int64_t{4});
  ASSERT_EQ(rebalancer.RouteAndObserve(idle, 3, 5), 0);
  ASSERT_EQ(rebalancer.RouteAndObserve(busy, 4, 45), 1);
  const Timestamp watermark = 50;

  const struct {
    const char* what;
    Migration move;
  } kBadMoves[] = {
      {"non-idle key", {busy, 1, 2}},
      {"stale from", {idle, 1, 2}},
      {"to past the last shard", {idle, 0, 3}},
      {"negative to", {idle, 0, -1}},
      {"to equals the current shard", {idle, 0, 0}},
  };
  int64_t rejected = 0;
  for (const auto& [what, move] : kBadMoves) {
    MigrationPlan plan;
    plan.moves.push_back(move);
    ShardRebalancerTestPeer::ApplyPlan(&rebalancer, plan, watermark);
    EXPECT_EQ(rebalancer.stats().moves_rejected, ++rejected) << what;
    EXPECT_EQ(rebalancer.stats().keys_migrated, 0) << what;
    // Routing is unchanged. Re-observing at the original timestamps leaves
    // both keys exactly as idle as before.
    EXPECT_EQ(rebalancer.RouteAndObserve(idle, 3, 5), 0) << what;
    EXPECT_EQ(rebalancer.RouteAndObserve(busy, 4, 45), 1) << what;
  }

  // A valid move of the idle key still applies: the rejections above were
  // not the table refusing everything.
  MigrationPlan good;
  good.moves.push_back(Migration{idle, 0, 2});
  ShardRebalancerTestPeer::ApplyPlan(&rebalancer, good, watermark);
  EXPECT_EQ(rebalancer.stats().moves_rejected, rejected);
  EXPECT_EQ(rebalancer.stats().keys_migrated, 1);
  EXPECT_EQ(rebalancer.RouteAndObserve(idle, 3, 51), 2);
}

TEST(BatchQueueSlab, PushAllPreservesFifoOrder) {
  BatchQueue queue(/*capacity=*/8);
  std::vector<EventBatch> slab;
  for (int i = 0; i < 5; ++i) {
    EventBatch batch;
    batch.watermark = i;
    slab.push_back(std::move(batch));
  }
  queue.PushAll(std::move(slab));
  EXPECT_EQ(queue.depth(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.Pop()->watermark, i);
  }
}

TEST(BatchQueueSlab, SlabLargerThanCapacityIsAdmittedInChunks) {
  BatchQueue queue(/*capacity=*/2);
  std::vector<EventBatch> slab;
  for (int i = 0; i < 7; ++i) {
    EventBatch batch;
    batch.watermark = i;
    slab.push_back(std::move(batch));
  }
  std::thread producer(
      [&queue, &slab]() mutable { queue.PushAll(std::move(slab)); });
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(queue.Pop()->watermark, i);
  }
  producer.join();
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace ses
