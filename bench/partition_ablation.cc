// Ablation: partitioned execution (core/partitioned.h) versus the global
// SES automaton, sweeping the number of distinct partition-key values.
// Both evaluate the same complete-equality pattern and return identical
// match sets; the partitioned matcher iterates only the event's own
// partition's instances per event, so its advantage grows with the number
// of concurrently active partitions.
//
// Further sweeps measure the sharded parallel runtime (exec/) against the
// serial partitioned matcher: speedup vs worker-thread count, ingest batch
// size, and key skew — the output checked byte-identical after SortMatches
// normalization at every point.
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
/// runtime's hash routing. The match output must be byte-identical to the
/// serial partitioned matcher at every point. The busiest shard's
/// busy-time share shows how unevenly a hot key loads the shards; it lands
/// in the gated JSON as busy_share_permille.
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
  std::printf("%-8s %12s %14s %12s %10s\n", "skew", "time [s]",
              "max q depth", "busy share", "matches");

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

    exec::ParallelOptions parallel_options;
    parallel_options.num_shards = 4;
    parallel_options.batch_size = 64;
    std::vector<Match> parallel;
    exec::ParallelStats stats;
    char name[64];
    std::snprintf(name, sizeof(name), "skew%.1f/parallel", skew);
    CaseResult skew_case =
        harness.Run(name, num_events, [&](CaseRun& run) {
          Result<std::vector<Match>> matches =
              exec::ParallelPartitionedMatchRelation(pattern, stream, -1,
                                                     parallel_options, &stats);
          SES_CHECK(matches.ok());
          parallel = std::move(*matches);
          run.SetCounter("matches", static_cast<int64_t>(parallel.size()),
                         /*exact=*/true);
          run.SetCounter("max_queue_depth", stats.max_queue_depth);
          run.SetCounter("busy_share_permille", BusySharePermille(stats));
        });
    SES_CHECK(IdenticalNormalized(*serial, parallel))
        << "parallel execution must be output-identical (skew " << skew
        << ")";
    std::printf("%-8.1f %12.4f %14lld %12lld %10zu\n", skew,
                skew_case.wall_seconds.mean,
                static_cast<long long>(stats.max_queue_depth),
                static_cast<long long>(BusySharePermille(stats)),
                parallel.size());
    report->Add(std::move(skew_case));
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
  MaybeWriteReport(args, report);
  return 0;
}
