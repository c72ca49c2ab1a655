// Tests for the sharded parallel partitioned runtime (exec/): exact
// equivalence with serial partitioned and global execution across shard
// counts, deterministic merge order, window-based partition eviction, the
// compile-once guarantee, Reset-based reuse, batched ingest (PushBatch /
// RunRelation) with byte-identical output on skewed (Zipf) and churning
// key distributions, and the BatchQueue primitive with its slab push.
// Runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/automaton_builder.h"
#include "core/partitioned.h"
#include "exec/batch_queue.h"
#include "exec/parallel_partitioned.h"
#include "query/parser.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::exec::BatchQueue;
using ::ses::exec::EventBatch;
using ::ses::exec::ParallelOptions;
using ::ses::exec::ParallelPartitionedMatchRelation;
using ::ses::exec::ParallelPartitionedMatcher;
using ::ses::exec::ParallelStats;
using ::ses::workload::ChemotherapySchema;

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

Pattern CompletePattern(const char* window = "5h") {
  return MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN " +
      std::string(window));
}

/// `skew` is the Zipf exponent of the key draw (0 = uniform).
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

/// The emitted order itself (no re-sorting): byte-identical output means
/// this sequence matches the sorted serial result exactly.
std::vector<std::vector<std::pair<VariableId, EventId>>> EmittedKeys(
    const std::vector<Match>& matches) {
  std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
  keys.reserve(matches.size());
  for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
  return keys;
}

/// Order-normalized identity: the sorted sequence of substitution keys.
std::vector<std::vector<std::pair<VariableId, EventId>>> NormalizedKeys(
    std::vector<Match> matches) {
  SortMatches(&matches);
  return EmittedKeys(matches);
}

TEST(ParallelPartitioned, EquivalentAcrossShardCountsOnHighCardinality) {
  Pattern pattern = CompletePattern();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // High-cardinality keyed stream: many more keys than shards.
    EventRelation stream = KeyedStream(seed, 96, 1500);
    Result<std::vector<Match>> global = MatchRelation(pattern, stream);
    ASSERT_TRUE(global.ok());
    Result<std::vector<Match>> serial =
        PartitionedMatchRelation(pattern, stream);
    ASSERT_TRUE(serial.ok());
    auto expected = NormalizedKeys(*global);
    EXPECT_EQ(NormalizedKeys(*serial), expected) << "seed " << seed;

    for (int shards : {1, 2, 8}) {
      ParallelOptions options;
      options.num_shards = shards;
      options.batch_size = 64;  // several batches per run
      ParallelStats stats;
      Result<std::vector<Match>> parallel = ParallelPartitionedMatchRelation(
          pattern, stream, /*attribute=*/-1, options, &stats);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(NormalizedKeys(*parallel), expected)
          << "seed " << seed << " shards " << shards;
      EXPECT_TRUE(SameMatchSet(*global, *parallel));
      EXPECT_EQ(stats.events_ingested, static_cast<int64_t>(stream.size()));
    }
  }
}

TEST(ParallelPartitioned, MergeOrderIsDeterministicAndSorted) {
  Pattern pattern = CompletePattern();
  EventRelation stream = KeyedStream(/*seed=*/9, 64, 2000);
  ParallelOptions options;
  options.num_shards = 8;
  options.batch_size = 32;
  Result<std::vector<Match>> first =
      ParallelPartitionedMatchRelation(pattern, stream, -1, options);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  // The emitted order must already be the canonical SortMatches order...
  EXPECT_EQ(EmittedKeys(*first), NormalizedKeys(*first));
  // ...and identical run to run despite worker scheduling.
  for (int run = 0; run < 3; ++run) {
    Result<std::vector<Match>> again =
        ParallelPartitionedMatchRelation(pattern, stream, -1, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(EmittedKeys(*first), EmittedKeys(*again)) << "run " << run;
  }
}

TEST(ParallelPartitioned, AutomatonCompiledExactlyOnce) {
  Pattern pattern = CompletePattern();
  EventRelation stream = KeyedStream(/*seed=*/3, 128, 1200);
  int64_t before = AutomatonBuilder::builds_started();
  ParallelOptions options;
  options.num_shards = 8;
  ParallelStats stats;
  Result<std::vector<Match>> matches =
      ParallelPartitionedMatchRelation(pattern, stream, -1, options, &stats);
  ASSERT_TRUE(matches.ok());
  // Many partitions were touched, yet the exponential powerset
  // construction ran exactly once.
  EXPECT_GT(stats.partitions_created, 64);
  EXPECT_EQ(AutomatonBuilder::builds_started() - before, 1);
}

EventRelation TwoKeyIdleStream() {
  // Key 1 completes a match within the 5h window, then goes idle; key 2
  // arrives much later, advancing the watermark far past key 1's horizon.
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, int64_t id) {
    relation.AppendUnchecked(
        duration::Hours(hours),
        {Value(id), Value(type), Value(0.0), Value(std::string("u"))});
  };
  add("A", 1, 1);
  add("B", 2, 1);
  add("X", 3, 1);
  add("A", 100, 2);
  add("B", 101, 2);
  add("X", 102, 2);
  return relation;
}

TEST(ParallelPartitioned, IdlePartitionIsEvictedAndStillEmits) {
  Pattern pattern = CompletePattern("5h");
  EventRelation stream = TwoKeyIdleStream();
  ParallelOptions options;
  options.num_shards = 1;   // both keys share the worker: deterministic
  options.batch_size = 1;   // eviction sweep after every event
  ParallelStats stats;
  Result<std::vector<Match>> matches =
      ParallelPartitionedMatchRelation(pattern, stream, 0, options, &stats);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  // Key 1's partition was idle for 97h > 5h when key 2's events arrived:
  // it must have been reclaimed mid-stream, and its accepting instance
  // must still have emitted its match at eviction time.
  EXPECT_EQ(stats.partitions_evicted, 1);
  EXPECT_EQ(stats.partitions_created, 2);
  EXPECT_EQ(matches->size(), 2u);
  EXPECT_EQ(NormalizedKeys(*matches),
            NormalizedKeys(*MatchRelation(pattern, stream)));
}

TEST(ParallelPartitioned, EvictionNeverChangesTheMatchSet) {
  // Property check: aggressive eviction (τe = the window) over a
  // bursty multi-key stream emits exactly the serial match set.
  Pattern pattern = CompletePattern("2h");
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    EventRelation stream = KeyedStream(seed, 48, 1200);
    Result<std::vector<Match>> global = MatchRelation(pattern, stream);
    ASSERT_TRUE(global.ok());
    ParallelOptions options;
    options.num_shards = 4;
    options.batch_size = 16;
    ParallelStats stats;
    Result<std::vector<Match>> parallel = ParallelPartitionedMatchRelation(
        pattern, stream, -1, options, &stats);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(NormalizedKeys(*parallel), NormalizedKeys(*global))
        << "seed " << seed;
    EXPECT_GT(stats.partitions_evicted, 0) << "seed " << seed;
  }
}

TEST(ParallelPartitioned, ResetAllowsReuseOnASecondRelation) {
  Pattern pattern = CompletePattern();
  ParallelOptions options;
  options.num_shards = 2;
  options.batch_size = 8;
  Result<ParallelPartitionedMatcher> matcher =
      ParallelPartitionedMatcher::Create(pattern, /*attribute=*/0, options);
  ASSERT_TRUE(matcher.ok());

  EventRelation stream = KeyedStream(/*seed=*/5, 16, 400);
  std::vector<Match> first;
  for (const Event& e : stream) matcher->Push(e);
  matcher->Flush(&first);
  EXPECT_FALSE(first.empty());

  matcher->Reset();
  std::vector<Match> second;
  for (const Event& e : stream) matcher->Push(e);
  matcher->Flush(&second);
  EXPECT_EQ(NormalizedKeys(first), NormalizedKeys(second));
}

TEST(ParallelPartitioned, CreateValidatesArguments) {
  Pattern pattern = CompletePattern();
  EXPECT_FALSE(ParallelPartitionedMatcher::Create(pattern, -1).ok());
  EXPECT_FALSE(ParallelPartitionedMatcher::Create(pattern, 99).ok());
  EXPECT_FALSE(ParallelPartitionedMatcher::Create(pattern, 2).ok());  // V
  Result<ParallelPartitionedMatcher> ok =
      ParallelPartitionedMatcher::Create(pattern, 0);
  ASSERT_TRUE(ok.ok());
  // num_shards is clamped to at least one worker.
  ParallelOptions options;
  options.num_shards = 0;
  Result<ParallelPartitionedMatcher> clamped =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->num_shards(), 1);
}

TEST(BatchedIngest, SkewEquivalenceAcrossThreadCounts) {
  Pattern pattern = CompletePattern();
  for (double skew : {0.0, 1.2}) {
    EventRelation stream = KeyedStream(/*seed=*/21, 64, 2000, skew);
    Result<std::vector<Match>> serial = MatchRelation(pattern, stream);
    ASSERT_TRUE(serial.ok());
    SortMatches(&*serial);
    auto expected = EmittedKeys(*serial);

    for (int threads : {1, 2, 4, 8}) {
      ParallelOptions options;
      options.num_shards = threads;
      options.batch_size = 32;
      Result<ParallelPartitionedMatcher> matcher =
          ParallelPartitionedMatcher::Create(pattern, /*attribute=*/0,
                                             options);
      ASSERT_TRUE(matcher.ok());
      matcher->PushBatch(std::span<const Event>(stream.events()));
      std::vector<Match> matches;
      matcher->Flush(&matches);
      // Byte-identical emitted order, independent of shard count and of
      // how unevenly the hot keys load the shards.
      EXPECT_EQ(EmittedKeys(matches), expected)
          << "skew " << skew << " threads " << threads;
    }
  }
}

/// Stream whose working key set turns over completely every phase: phase p
/// draws keys Zipf-skewed from [p*churn+1, p*churn+live], so keys are born
/// hot, cool off within one phase, and slip past the pattern window (and
/// out of residence by eviction) while the stream keeps flowing.
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

TEST(BatchedIngest, ChurnStressEquivalenceAcrossThreads) {
  Pattern pattern = CompletePattern();
  // 8 full key-set turnovers; each phase spans ~450 simulated minutes, so
  // the previous phase's keys pass the 5h idleness horizon mid-phase.
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
    Result<ParallelPartitionedMatcher> matcher =
        ParallelPartitionedMatcher::Create(pattern, /*attribute=*/0, options);
    ASSERT_TRUE(matcher.ok());
    matcher->PushBatch(std::span<const Event>(stream.events()));
    std::vector<Match> matches;
    matcher->Flush(&matches);
    // Byte-identical output no matter how many keys churned through
    // creation and eviction along the way.
    EXPECT_EQ(EmittedKeys(matches), expected) << "threads " << threads;
  }
}

TEST(BatchedIngest, PushBatchMatchesPerEventPush) {
  Pattern pattern = CompletePattern();
  EventRelation stream = KeyedStream(/*seed=*/7, 32, 1200, /*skew=*/1.0);
  ParallelOptions options;
  options.num_shards = 4;
  options.batch_size = 16;

  Result<ParallelPartitionedMatcher> per_event =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(per_event.ok());
  for (const Event& e : stream) per_event->Push(e);
  std::vector<Match> expected;
  per_event->Flush(&expected);

  // Whole relation in one span, and again in mixed spans + single pushes.
  Result<ParallelPartitionedMatcher> batched =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(batched.ok());
  batched->PushBatch(std::span<const Event>(stream.events()));
  std::vector<Match> got;
  batched->Flush(&got);
  EXPECT_EQ(EmittedKeys(got), EmittedKeys(expected));

  Result<ParallelPartitionedMatcher> mixed =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(mixed.ok());
  std::span<const Event> all(stream.events());
  size_t third = all.size() / 3;
  mixed->PushBatch(all.subspan(0, third));
  for (const Event& e : all.subspan(third, third)) mixed->Push(e);
  mixed->PushBatch(all.subspan(2 * third));
  std::vector<Match> mixed_matches;
  mixed->Flush(&mixed_matches);
  EXPECT_EQ(EmittedKeys(mixed_matches), EmittedKeys(expected));
}

TEST(BatchedIngest, RunRelationValidatesAndFeedsTheWholeRelation) {
  Pattern pattern = CompletePattern();
  EventRelation stream = KeyedStream(/*seed=*/13, 24, 900);
  ParallelOptions options;
  options.num_shards = 2;
  options.batch_size = 8;
  Result<ParallelPartitionedMatcher> matcher =
      ParallelPartitionedMatcher::Create(pattern, 0, options);
  ASSERT_TRUE(matcher.ok());
  ASSERT_TRUE(matcher->RunRelation(stream).ok());
  std::vector<Match> got;
  matcher->Flush(&got);
  EXPECT_EQ(matcher->stats().events_ingested,
            static_cast<int64_t>(stream.size()));

  Result<std::vector<Match>> serial = MatchRelation(pattern, stream);
  ASSERT_TRUE(serial.ok());
  SortMatches(&*serial);
  EXPECT_EQ(EmittedKeys(got), EmittedKeys(*serial));

  // The relation APIs are the partition-pure evaluators' entry points and
  // check the order once, up front: a tie is refused before any event is
  // routed.
  EventRelation tied(ChemotherapySchema());
  for (int64_t id : {1, 2}) {
    tied.AppendUnchecked(duration::Hours(1),
                         {Value(id), Value(std::string("A")), Value(0.0),
                          Value(std::string("u"))});
  }
  matcher->Reset();
  EXPECT_EQ(matcher->RunRelation(tied).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(PartitionedMatchRelation(pattern, tied).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BatchQueue, FifoAndDepth) {
  BatchQueue queue(/*capacity=*/4);
  for (int i = 0; i < 3; ++i) {
    EventBatch batch;
    batch.watermark = i;
    queue.Push(std::move(batch));
  }
  EXPECT_EQ(queue.depth(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(queue.Pop()->watermark, i);
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(BatchQueue, BoundedPushBlocksUntilPop) {
  BatchQueue queue(/*capacity=*/1);
  queue.Push(EventBatch{EventBatch::Kind::kEvents, {}, 1});
  std::thread producer(
      [&queue] { queue.Push(EventBatch{EventBatch::Kind::kEvents, {}, 2}); });
  EXPECT_EQ(queue.Pop()->watermark, 1);
  EXPECT_EQ(queue.Pop()->watermark, 2);
  producer.join();
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

TEST(BatchQueueClose, WakesABlockedConsumer) {
  // Before Close() existed, a worker blocked in Pop on an empty queue when
  // the producer exited early deadlocked forever.
  BatchQueue queue(/*capacity=*/2);
  std::thread consumer([&queue] {
    std::optional<EventBatch> batch = queue.Pop();
    EXPECT_FALSE(batch.has_value());
  });
  queue.Close();
  consumer.join();
}

TEST(BatchQueueClose, WakesABlockedProducerAndReportsTheDrop) {
  BatchQueue queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(EventBatch{EventBatch::Kind::kEvents, {}, 1}));
  std::thread producer([&queue] {
    // Full queue: this blocks until Close, then reports the batch dropped.
    EXPECT_FALSE(queue.Push(EventBatch{EventBatch::Kind::kEvents, {}, 2}));
    std::vector<EventBatch> slab(3);
    EXPECT_FALSE(queue.PushAll(std::move(slab)));
  });
  queue.Close();
  producer.join();
  // The batch admitted before the close is still poppable (drain), then
  // Pop reports closed-and-drained.
  std::optional<EventBatch> drained = queue.Pop();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->watermark, 1);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_TRUE(queue.closed());
}

TEST(BatchQueueClose, ShutdownRaceNeverDeadlocksOrDropsAdmittedBatches) {
  // The TSan-hunted shutdown race: producers pushing slabs, consumers
  // draining, and Close() landing in the middle from a third thread. Every
  // admitted batch must be popped exactly once, every thread must return.
  for (int trial = 0; trial < 20; ++trial) {
    BatchQueue queue(/*capacity=*/2);
    std::atomic<int64_t> produced{0};
    std::atomic<int64_t> consumed{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&queue, &produced] {
        for (int i = 0; i < 64; ++i) {
          if (!queue.Push(EventBatch{EventBatch::Kind::kEvents, {}, i})) {
            return;  // closed under us — admitted count already recorded
          }
          produced.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&queue, &consumed] {
        while (queue.Pop().has_value()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::thread closer([&queue] { queue.Close(); });
    closer.join();
    for (std::thread& t : producers) t.join();
    for (std::thread& t : consumers) t.join();
    // Consumers drain everything admitted before the close won the race.
    EXPECT_EQ(consumed.load(), produced.load()) << "trial " << trial;
    EXPECT_EQ(queue.depth(), 0u) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ses
