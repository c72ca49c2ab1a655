// Engine comparison: every engine listed in engine/registry.h runs the
// same CompiledPlan over the same stream through the uniform Engine
// interface (PushBatch + Flush into a MatchSink), so the numbers measure
// the runtimes, not three different harnesses. All timing goes through
// bench::Harness (warmup + repeated runs + steady-state detection +
// sink-measured emission latency); with --json the report lands in the
// BENCH_engines.json schema that tools/bench_compare gates CI on. Two
// sweeps:
//
//   1. All engines on a small stream, as a correctness-anchored cost
//      ladder. Every engine's normalized output is checked identical to
//      the serial engine's.
//   2. The streaming engines (serial / partitioned / parallel) on larger
//      streams across partition-key skew, reporting throughput and — for
//      the parallel engine — the incremental-emission statistics
//      (matches delivered before the flush barrier, peak buffered).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/engine_bench.h"
#include "engine/registry.h"
#include "plan/compiled_plan.h"
#include "workload/generic_generator.h"

namespace {

using namespace ses;
using namespace ses::bench;

/// Complete-equality pattern on ID: accepted by every engine.
Pattern CompletePattern(Duration window) {
  PatternBuilder builder(workload::ChemotherapySchema());
  builder.BeginSet().Var("a").Var("b").EndSet();
  builder.BeginSet().Var("x").EndSet();
  builder.WhereConst("a", "L", ComparisonOp::kEq, Value("A"));
  builder.WhereConst("b", "L", ComparisonOp::kEq, Value("B"));
  builder.WhereConst("x", "L", ComparisonOp::kEq, Value("X"));
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "b", "ID");
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "x", "ID");
  builder.WhereVar("b", "ID", ComparisonOp::kEq, "x", "ID");
  builder.Within(window);
  Result<Pattern> pattern = builder.Build();
  SES_CHECK(pattern.ok());
  return *pattern;
}

EventRelation MakeStream(int64_t events, int partitions, double skew,
                         uint64_t seed) {
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

void PrintCaseRow(const char* engine, const EngineCaseOutput& out) {
  const CaseResult& r = out.result;
  std::printf("%-14s %12.4f %14.0f %10zu %12.0f %s\n", engine,
              r.wall_seconds.mean, r.events_per_sec, out.matches.size(),
              r.latency.count > 0 ? r.latency.p99_ns / 1000.0 : 0.0,
              "identical");
}

/// Sweep 1: every engine on a small stream, checked against the serial
/// engine's output.
void EngineLadder(const Harness& harness, int64_t events,
                  BenchReport* report) {
  auto plan = plan::CompilePlan(CompletePattern(duration::Hours(4)));
  SES_CHECK(plan.ok());
  EventRelation stream = MakeStream(events, 16, 0.0, 11);

  std::printf("\nAll engines (%lld events, 16 keys, 4h window)\n",
              static_cast<long long>(events));
  std::printf("%-14s %12s %14s %10s %12s %s\n", "engine", "wall [s]",
              "events/s", "matches", "p99 [us]", "output");

  // The serial engine runs first: its output is the reference.
  std::vector<std::string> names = {"serial"};
  for (const engine::EngineInfo& info : engine::ListEngines()) {
    if (info.name != "serial") names.emplace_back(info.name);
  }
  std::vector<std::vector<std::pair<VariableId, EventId>>> reference;
  for (const std::string& name : names) {
    EngineCaseConfig config;
    config.engine = name;
    Result<EngineCaseOutput> run = RunEngineCase(
        harness, "ladder/" + name, *plan, stream, std::move(config));
    SES_CHECK(run.ok()) << "engine " << name << ": "
                        << run.status().ToString();
    auto keys = NormalizedKeys(run->matches);
    if (name == "serial") reference = keys;
    SES_CHECK(keys == reference)
        << "engine " << name << " diverged from the serial engine's output";
    PrintCaseRow(name.c_str(), *run);
    report->Add(std::move(run->result));
  }
}

/// Sweep 2: the streaming engines across key skew, with the parallel
/// engine's incremental-emission statistics.
void SkewSweep(const Harness& harness, int64_t events, BenchReport* report) {
  auto plan = plan::CompilePlan(CompletePattern(duration::Hours(4)));
  SES_CHECK(plan.ok());

  std::printf(
      "\nStreaming engines across key skew (%lld events, 48 keys, 4h "
      "window; parallel: 4 shards, shallow queues, emit every 512 "
      "events)\n",
      static_cast<long long>(events));
  std::printf("%-8s %-14s %12s %14s %10s %12s %12s\n", "skew", "engine",
              "wall [s]", "events/s", "matches", "early", "peak buf");

  for (double skew : {0.0, 0.8, 1.2}) {
    EventRelation stream = MakeStream(events, 48, skew, 23);
    std::vector<std::vector<std::pair<VariableId, EventId>>> reference;
    bool have_reference = false;
    for (const std::string name : {"serial", "partitioned", "parallel"}) {
      EngineCaseConfig config;
      config.engine = name;
      if (name == "parallel") {
        config.options.num_shards = 4;
        config.options.batch_size = 64;
        config.options.queue_capacity = 2;
        config.options.emit_interval_events = 512;
      }
      char case_name[64];
      std::snprintf(case_name, sizeof(case_name), "skew%.1f/%s", skew,
                    name.c_str());
      Result<EngineCaseOutput> run =
          RunEngineCase(harness, case_name, *plan, stream, std::move(config));
      SES_CHECK(run.ok()) << "engine " << name << ": "
                          << run.status().ToString();
      auto keys = NormalizedKeys(run->matches);
      if (!have_reference) {
        reference = keys;
        have_reference = true;
      }
      SES_CHECK(keys == reference)
          << "engine " << name << " diverged at skew " << skew;
      const CaseResult& r = run->result;
      if (name == "parallel") {
        std::printf(
            "%-8.1f %-14s %12.4f %14.0f %10zu %12lld %12lld\n", skew,
            name.c_str(), r.wall_seconds.mean, r.events_per_sec,
            run->matches.size(),
            static_cast<long long>(run->stats.matches_emitted_early),
            static_cast<long long>(run->stats.max_buffered_matches));
      } else {
        std::printf("%-8.1f %-14s %12.4f %14.0f %10zu %12s %12s\n", skew,
                    name.c_str(), r.wall_seconds.mean, r.events_per_sec,
                    run->matches.size(), "-", "-");
      }
      report->Add(std::move(run->result));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const int64_t ladder_events =
      args.full ? 20000 : static_cast<int64_t>(ScaleEvents(args, 4000));
  const int64_t sweep_events =
      args.full ? 200000 : static_cast<int64_t>(ScaleEvents(args, 40000));
  Harness harness(DefaultHarnessOptions(args));
  BenchReport report("engines");
  EngineLadder(harness, ladder_events, &report);
  SkewSweep(harness, sweep_events, &report);
  std::printf(
      "\nAll engines ran from one shared CompiledPlan (single automaton "
      "compilation) through the uniform Engine interface.\n");
  MaybeWriteReport(args, report);
  return 0;
}
