// Ablation: partitioned execution (core/partitioned.h) versus the global
// SES automaton, sweeping the number of distinct partition-key values.
// Both evaluate the same complete-equality pattern and return identical
// match sets; the partitioned matcher iterates only the event's own
// partition's instances per event, so its advantage grows with the number
// of concurrently active partitions.
//
// Further sweeps measure the sharded parallel runtime (exec/) against the
// serial partitioned matcher: speedup vs worker-thread count, ingest batch
// size, and key skew with adaptive rebalancing off/on — the output checked
// byte-identical after SortMatches normalization at every point.
//
// All timing goes through bench::Harness (warmup + repeated runs +
// steady-state detection); with --json the report lands in the
// BENCH_partition.json schema that tools/bench_compare gates CI on.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/partitioned.h"
#include "engine/registry.h"
#include "exec/parallel_partitioned.h"
#include "plan/compiled_plan.h"
#include "workload/generic_generator.h"

namespace {

using namespace ses;
using namespace ses::bench;

Pattern CompletePattern() {
  PatternBuilder builder(workload::ChemotherapySchema());
  builder.BeginSet().Var("a").Var("b").EndSet();
  builder.BeginSet().Var("x").EndSet();
  builder.WhereConst("a", "L", ComparisonOp::kEq, Value("A"));
  builder.WhereConst("b", "L", ComparisonOp::kEq, Value("B"));
  builder.WhereConst("x", "L", ComparisonOp::kEq, Value("X"));
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "b", "ID");
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "x", "ID");
  builder.WhereVar("b", "ID", ComparisonOp::kEq, "x", "ID");
  builder.Within(duration::Hours(8));
  Result<Pattern> pattern = builder.Build();
  SES_CHECK(pattern.ok());
  return *pattern;
}

/// Order-normalized byte-identity between two result sets.
bool IdenticalNormalized(std::vector<Match> a, std::vector<Match> b) {
  if (a.size() != b.size()) return false;
  SortMatches(&a);
  SortMatches(&b);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].SubstitutionKey() != b[i].SubstitutionKey()) return false;
  }
  return true;
}

/// The thread sweep needs per-partition work that dominates the queueing
/// overhead, so it combines the paper's two instance-heavy regimes: a group
/// variable (Theorem 3) and non-exclusive conditions (patterns P2/P6 — a,
/// b, and p+ all match the same event type, so every C event branches every
/// instance). Each partition is then genuinely compute-heavy and the serial
/// matcher, not the shard queues, is the bottleneck.
Pattern HeavyCompletePattern() {
  PatternBuilder builder(workload::ChemotherapySchema());
  builder.BeginSet().Var("a").Var("b").GroupVar("p").EndSet();
  builder.BeginSet().Var("x").EndSet();
  builder.WhereConst("a", "L", ComparisonOp::kEq, Value("C"));
  builder.WhereConst("b", "L", ComparisonOp::kEq, Value("C"));
  builder.WhereConst("p", "L", ComparisonOp::kEq, Value("C"));
  builder.WhereConst("x", "L", ComparisonOp::kEq, Value("B"));
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "b", "ID");
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "p", "ID");
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "x", "ID");
  builder.WhereVar("b", "ID", ComparisonOp::kEq, "p", "ID");
  builder.WhereVar("b", "ID", ComparisonOp::kEq, "x", "ID");
  builder.WhereVar("p", "ID", ComparisonOp::kEq, "x", "ID");
  builder.Within(duration::Hours(24));
  Result<Pattern> pattern = builder.Build();
  SES_CHECK(pattern.ok());
  return *pattern;
}

EventRelation HeavyStream(int64_t num_events) {
  workload::StreamOptions options;
  options.num_events = num_events;
  options.num_partitions = 64;
  options.type_weights = {{"C", 4}, {"B", 1}, {"N", 2}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(5);
  options.seed = 77;
  return workload::GenerateStream(options);
}

void AblationSweep(const Harness& harness, int64_t num_events,
                   BenchReport* report) {
  Pattern pattern = CompletePattern();
  std::printf("Partitioned execution ablation (%lld events per run)\n",
              static_cast<long long>(num_events));
  std::printf("%-12s %12s %12s %10s %12s %12s %10s\n", "partitions",
              "global [s]", "partit. [s]", "speedup", "|O| global",
              "|O| partit.", "matches");

  for (int partitions : {1, 4, 16, 64, 256}) {
    workload::StreamOptions options;
    options.num_events = num_events;
    options.num_partitions = partitions;
    options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 3}};
    options.min_gap = duration::Minutes(1);
    options.max_gap = duration::Minutes(5);
    options.seed = 77;
    EventRelation stream = workload::GenerateStream(options);

    char name[64];
    std::vector<Match> global;
    ExecutorStats global_stats;
    std::snprintf(name, sizeof(name), "ablation/p%d/global", partitions);
    CaseResult global_case =
        harness.Run(name, num_events, [&](CaseRun& run) {
          Result<std::vector<Match>> matches =
              MatchRelation(pattern, stream, MatcherOptions{}, &global_stats);
          SES_CHECK(matches.ok());
          global = std::move(*matches);
          run.SetCounter("matches", static_cast<int64_t>(global.size()),
                         /*exact=*/true);
          run.SetCounter("max_instances",
                         global_stats.max_simultaneous_instances,
                         /*exact=*/true);
        });

    std::vector<Match> partitioned;
    PartitionedStats part_stats;
    std::snprintf(name, sizeof(name), "ablation/p%d/partitioned", partitions);
    CaseResult part_case =
        harness.Run(name, num_events, [&](CaseRun& run) {
          Result<std::vector<Match>> matches = PartitionedMatchRelation(
              pattern, stream, /*attribute=*/-1, MatcherOptions{},
              &part_stats);
          SES_CHECK(matches.ok());
          partitioned = std::move(*matches);
          run.SetCounter("matches",
                         static_cast<int64_t>(partitioned.size()),
                         /*exact=*/true);
          run.SetCounter("max_instances",
                         part_stats.max_simultaneous_instances,
                         /*exact=*/true);
        });
    SES_CHECK(SameMatchSet(global, partitioned))
        << "partitioned execution must be output-identical";

    std::printf("%-12d %12.4f %12.4f %9.1fx %12lld %12lld %10zu\n",
                partitions, global_case.wall_seconds.mean,
                part_case.wall_seconds.mean,
                part_case.wall_seconds.mean > 0
                    ? global_case.wall_seconds.mean /
                          part_case.wall_seconds.mean
                    : 0.0,
                static_cast<long long>(
                    global_stats.max_simultaneous_instances),
                static_cast<long long>(
                    part_stats.max_simultaneous_instances),
                global.size());
    report->Add(std::move(global_case));
    report->Add(std::move(part_case));
  }
}

void ThreadSweep(const Harness& harness, int64_t num_events,
                 BenchReport* report) {
  Pattern pattern = HeavyCompletePattern();
  unsigned hardware = std::thread::hardware_concurrency();
  std::printf(
      "\nParallel sharded runtime (%lld events, 64-key stream, group "
      "variable, eviction at the window; %u hardware thread(s))\n",
      static_cast<long long>(num_events), hardware);
  if (hardware <= 1) {
    std::printf(
        "NOTE: single-core host — worker shards time-slice one core, so "
        "speedup cannot exceed 1x here; the output-identity checks still "
        "hold.\n");
  }
  std::printf("%-12s %12s %10s %12s %10s\n", "threads", "time [s]",
              "speedup", "evicted", "matches");

  EventRelation stream = HeavyStream(num_events);

  std::vector<Match> serial;
  CaseResult serial_case =
      harness.Run("threads/serial", num_events, [&](CaseRun& run) {
        Result<std::vector<Match>> matches =
            PartitionedMatchRelation(pattern, stream);
        SES_CHECK(matches.ok());
        serial = std::move(*matches);
        run.SetCounter("matches", static_cast<int64_t>(serial.size()),
                       /*exact=*/true);
      });
  double serial_seconds = serial_case.wall_seconds.mean;
  std::printf("%-12s %12.4f %9s %12s %10zu\n", "serial", serial_seconds,
              "1.0x", "-", serial.size());
  report->Add(std::move(serial_case));

  for (int threads : {1, 2, 4, 8}) {
    exec::ParallelOptions parallel_options;
    parallel_options.num_shards = threads;
    std::vector<Match> parallel;
    exec::ParallelStats stats;
    char name[64];
    std::snprintf(name, sizeof(name), "threads/t%d", threads);
    CaseResult parallel_case =
        harness.Run(name, num_events, [&](CaseRun& run) {
          Result<std::vector<Match>> matches =
              exec::ParallelPartitionedMatchRelation(
                  pattern, stream, /*attribute=*/-1, parallel_options,
                  &stats);
          SES_CHECK(matches.ok());
          parallel = std::move(*matches);
          run.SetCounter("matches", static_cast<int64_t>(parallel.size()),
                         /*exact=*/true);
          run.SetCounter("partitions_evicted", stats.partitions_evicted);
          run.SetCounter("max_queue_depth", stats.max_queue_depth);
        });
    SES_CHECK(IdenticalNormalized(serial, parallel))
        << "parallel execution must be output-identical";
    double seconds = parallel_case.wall_seconds.mean;
    std::printf("%-12d %12.4f %9.1fx %12lld %10zu\n", threads, seconds,
                seconds > 0 ? serial_seconds / seconds : 0.0,
                static_cast<long long>(stats.partitions_evicted),
                parallel.size());
    report->Add(std::move(parallel_case));
  }
}

/// Batch-size sweep: the batched ingest path (PushBatch/RunRelation +
/// BatchQueue::PushAll slabs) at a fixed shard count, sweeping events per
/// batch. Small batches maximize queue synchronization per event; large
/// batches amortize it but delay the workers' start. Output identity with
/// the serial partitioned matcher is asserted at every point.
void BatchSweep(const Harness& harness, int64_t num_events,
                BenchReport* report) {
  Pattern pattern = HeavyCompletePattern();
  std::printf(
      "\nBatched ingest sweep (%lld events, 64-key stream, 4 shards)\n",
      static_cast<long long>(num_events));
  std::printf("%-12s %12s %12s %14s %10s\n", "batch", "time [s]",
              "batches", "max q depth", "matches");

  EventRelation stream = HeavyStream(num_events);

  Result<std::vector<Match>> serial =
      PartitionedMatchRelation(pattern, stream);
  SES_CHECK(serial.ok());

  for (size_t batch : {size_t{1}, size_t{16}, size_t{256}, size_t{2048}}) {
    exec::ParallelOptions parallel_options;
    parallel_options.num_shards = 4;
    parallel_options.batch_size = batch;
    std::vector<Match> parallel;
    exec::ParallelStats stats;
    char name[64];
    std::snprintf(name, sizeof(name), "batch/b%zu", batch);
    CaseResult batch_case =
        harness.Run(name, num_events, [&](CaseRun& run) {
          Result<std::vector<Match>> matches =
              exec::ParallelPartitionedMatchRelation(pattern, stream, -1,
                                                     parallel_options,
                                                     &stats);
          SES_CHECK(matches.ok());
          parallel = std::move(*matches);
          run.SetCounter("matches", static_cast<int64_t>(parallel.size()),
                         /*exact=*/true);
          run.SetCounter("batches_enqueued", stats.batches_enqueued);
          run.SetCounter("max_queue_depth", stats.max_queue_depth);
        });
    SES_CHECK(IdenticalNormalized(*serial, parallel))
        << "batched ingest must be output-identical";
    std::printf("%-12zu %12.4f %12lld %14lld %10zu\n", batch,
                batch_case.wall_seconds.mean,
                static_cast<long long>(stats.batches_enqueued),
                static_cast<long long>(stats.max_queue_depth),
                parallel.size());
    report->Add(std::move(batch_case));
  }
}

/// The busiest shard's share of total worker busy time, in permille: 1000
/// means one shard did everything, 250 is perfectly level across 4 shards.
int64_t BusySharePermille(const exec::ParallelStats& stats) {
  int64_t total_busy = 0;
  int64_t max_busy = 0;
  for (const exec::ShardStats& shard : stats.shards) {
    total_busy += shard.busy_nanos;
    max_busy = std::max(max_busy, shard.busy_nanos);
  }
  return total_busy > 0 ? 1000 * max_busy / total_busy : 0;
}

/// Skew sweep: Zipf-distributed partition keys against the parallel
/// runtime with adaptive rebalancing off and on. The rebalancer's
/// migration decisions are timing-dependent; the match output must be
/// byte-identical regardless (only idle keys move), which is asserted at
/// every point. The busiest shard's busy-time share is what rebalancing
/// exists to push down; it lands in the gated JSON as busy_share_permille.
/// Uses the light (mutually exclusive) pattern: a Zipf hot key
/// concentrates a quarter of the stream in ONE partition, and the
/// group-variable pattern's per-partition instance growth is superlinear —
/// the sweep measures routing and queueing, not that explosion.
void SkewSweep(const Harness& harness, int64_t num_events,
               BenchReport* report) {
  Pattern pattern = CompletePattern();
  std::printf(
      "\nSkewed-key sweep (%lld events, 64 keys, 4 shards; Zipf exponent "
      "s)\n",
      static_cast<long long>(num_events));
  std::printf("%-8s %-10s %12s %14s %12s %12s %12s %10s\n", "skew",
              "rebalance", "time [s]", "max q depth", "busy share",
              "migrated", "overrides", "matches");

  for (double skew : {0.0, 0.8, 1.2}) {
    workload::StreamOptions options;
    options.num_events = num_events;
    options.num_partitions = 64;
    options.key_skew = skew;
    options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 3}};
    options.min_gap = duration::Minutes(1);
    options.max_gap = duration::Minutes(5);
    options.seed = 77;
    EventRelation stream = workload::GenerateStream(options);

    Result<std::vector<Match>> serial =
        PartitionedMatchRelation(pattern, stream);
    SES_CHECK(serial.ok());

    for (bool rebalance : {false, true}) {
      exec::ParallelOptions parallel_options;
      parallel_options.num_shards = 4;
      parallel_options.batch_size = 64;
      parallel_options.rebalance.enabled = rebalance;
      parallel_options.rebalance.interval_events = 2048;
      std::vector<Match> parallel;
      exec::ParallelStats stats;
      char name[64];
      std::snprintf(name, sizeof(name), "skew%.1f/rebalance-%s", skew,
                    rebalance ? "on" : "off");
      CaseResult skew_case =
          harness.Run(name, num_events, [&](CaseRun& run) {
            Result<std::vector<Match>> matches =
                exec::ParallelPartitionedMatchRelation(pattern, stream, -1,
                                                       parallel_options,
                                                       &stats);
            SES_CHECK(matches.ok());
            parallel = std::move(*matches);
            run.SetCounter("matches", static_cast<int64_t>(parallel.size()),
                           /*exact=*/true);
            run.SetCounter("max_queue_depth", stats.max_queue_depth);
            run.SetCounter("keys_migrated", stats.rebalancer.keys_migrated);
            run.SetCounter("busy_share_permille", BusySharePermille(stats));
            run.SetCounter("hot_key_rounds", stats.rebalancer.hot_key_rounds);
          });
      SES_CHECK(IdenticalNormalized(*serial, parallel))
          << "rebalancing must be output-identical (skew " << skew << ")";
      std::printf("%-8.1f %-10s %12.4f %14lld %12lld %12lld %12lld %10zu\n",
                  skew, rebalance ? "on" : "off", skew_case.wall_seconds.mean,
                  static_cast<long long>(stats.max_queue_depth),
                  static_cast<long long>(BusySharePermille(stats)),
                  static_cast<long long>(stats.rebalancer.keys_migrated),
                  static_cast<long long>(stats.rebalancer.overrides_active),
                  parallel.size());
      report->Add(std::move(skew_case));
    }
  }
}

/// Bounded-lateness ingest ablation: the serial engine over the in-order
/// stream with the reorder stage off, versus the same engine fed a
/// within-bound shuffle (jittered arrival order) through the
/// exec::ReorderBuffer ingest stage at increasing lateness bounds. The
/// match set is asserted identical at every point — the reorder stage's
/// whole contract — and the gated JSON records how much work the stage
/// did (events_reordered, max_reorder_buffered).
void LatenessSweep(const Harness& harness, int64_t num_events,
                   BenchReport* report) {
  Pattern pattern = CompletePattern();
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(pattern);
  SES_CHECK(plan.ok());

  workload::StreamOptions options;
  options.num_events = num_events;
  options.num_partitions = 64;
  options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 3}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(5);
  options.seed = 77;
  EventRelation stream = workload::GenerateStream(options);

  auto run_engine = [&](engine::EngineOptions engine_options,
                        std::span<const Event> events,
                        engine::EngineStats* stats) {
    std::vector<Match> matches;
    engine_options.sink = engine::CollectInto(&matches);
    Result<std::unique_ptr<engine::Engine>> eng =
        engine::CreateEngine("serial", *plan, std::move(engine_options));
    SES_CHECK(eng.ok());
    SES_CHECK((*eng)->PushBatch(events).ok());
    SES_CHECK((*eng)->Flush().ok());
    *stats = (*eng)->stats();
    return matches;
  };

  std::printf(
      "\nBounded-lateness sweep (%lld events, serial engine; shuffled "
      "within the bound vs in-order ingest)\n",
      static_cast<long long>(num_events));
  std::printf("%-10s %12s %12s %14s %10s\n", "bound", "time [s]",
              "reordered", "max buffered", "matches");

  engine::EngineStats baseline_stats;
  std::vector<Match> expected;
  CaseResult off_case = harness.Run(
      "lateness/off", num_events, [&](CaseRun& run) {
        expected = run_engine({}, std::span<const Event>(stream.events()),
                              &baseline_stats);
        run.SetCounter("matches", static_cast<int64_t>(expected.size()),
                       /*exact=*/true);
        run.SetCounter("events_reordered", baseline_stats.events_reordered,
                       /*exact=*/true);
      });
  std::printf("%-10s %12.4f %12lld %14lld %10zu\n", "off",
              off_case.wall_seconds.mean,
              static_cast<long long>(baseline_stats.events_reordered),
              static_cast<long long>(baseline_stats.max_reorder_buffered),
              expected.size());
  report->Add(std::move(off_case));

  const struct {
    const char* label;
    Duration bound;
  } kBounds[] = {{"5m", duration::Minutes(5)},
                 {"30m", duration::Minutes(30)},
                 {"2h", duration::Hours(2)}};
  for (const auto& [label, bound] : kBounds) {
    std::vector<Event> shuffled =
        workload::ShuffleWithinBound(stream.events(), bound, 9091);
    engine::EngineStats stats;
    std::vector<Match> matches;
    char name[64];
    std::snprintf(name, sizeof(name), "lateness/%s", label);
    CaseResult bound_case = harness.Run(name, num_events, [&](CaseRun& run) {
      engine::EngineOptions engine_options;
      engine_options.lateness_bound = bound;
      matches = run_engine(std::move(engine_options),
                           std::span<const Event>(shuffled), &stats);
      run.SetCounter("matches", static_cast<int64_t>(matches.size()),
                     /*exact=*/true);
      run.SetCounter("events_reordered", stats.events_reordered,
                     /*exact=*/true);
      run.SetCounter("events_late", stats.events_late, /*exact=*/true);
      run.SetCounter("max_reorder_buffered", stats.max_reorder_buffered);
    });
    SES_CHECK(IdenticalNormalized(expected, matches))
        << "bounded-lateness reorder must be output-identical (bound "
        << label << ")";
    std::printf("%-10s %12.4f %12lld %14lld %10zu\n", label,
                bound_case.wall_seconds.mean,
                static_cast<long long>(stats.events_reordered),
                static_cast<long long>(stats.max_reorder_buffered),
                matches.size());
    report->Add(std::move(bound_case));
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  Harness harness(DefaultHarnessOptions(args));
  BenchReport report("partition");

  AblationSweep(harness,
                args.full ? 120000
                          : static_cast<int64_t>(ScaleEvents(args, 30000)),
                &report);
  ThreadSweep(harness,
              args.full ? 120000
                        : static_cast<int64_t>(ScaleEvents(args, 40000)),
              &report);
  BatchSweep(harness,
             args.full ? 120000
                       : static_cast<int64_t>(ScaleEvents(args, 40000)),
             &report);
  SkewSweep(harness,
            args.full ? 120000
                      : static_cast<int64_t>(ScaleEvents(args, 30000)),
            &report);
  LatenessSweep(harness,
                args.full ? 120000
                          : static_cast<int64_t>(ScaleEvents(args, 30000)),
                &report);
  MaybeWriteReport(args, report);
  return 0;
}
