#ifndef SES_BENCH_ENGINE_BENCH_H_
#define SES_BENCH_ENGINE_BENCH_H_

// Harness adapter for the engine layer: drives any registered engine over a
// stream under the Harness cadence (warmup, repeated runs via Reset,
// steady-state detection), measures per-match emission latency through the
// MatchSink, and folds the engine's counter snapshot (EngineCounters) into
// the case record. bench/engine_compare and bench/partition_ablation both
// report through this, so their numbers are directly comparable.

#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "engine/registry.h"
#include "event/relation.h"
#include "plan/compiled_plan.h"

namespace ses::bench {

/// How one engine case is driven.
struct EngineCaseConfig {
  /// Engine name ("serial", "partitioned", "parallel").
  std::string engine;
  /// Runtime knobs; the sink is replaced by the harness's probed collector.
  engine::EngineOptions options;
  /// Events per PushBatch call; 0 pushes the whole stream as one span. A
  /// streaming-realistic chunk (e.g. 1024) keeps the parallel engine's
  /// incremental-emission path exercised between calls.
  size_t push_batch = 1024;
};

/// Case record plus the artifacts the identity checks need.
struct EngineCaseOutput {
  CaseResult result;
  /// Engine stats snapshot of the last timed run.
  engine::EngineStats stats;
  /// Matches of the last timed run (delivery order, unsorted).
  std::vector<Match> matches;
};

/// Measures `config.engine` executing `plan` over `stream`. The engine is
/// created once and Reset() between runs. Counters folded into the case:
/// "matches" and "events" (exact — deterministic for every engine),
/// plus every EngineCounters entry as informational values. Errors from
/// engine creation (e.g. a partition-pure engine on a plan without a
/// partition attribute) are returned, not measured.
Result<EngineCaseOutput> RunEngineCase(
    const Harness& harness, const std::string& case_name,
    std::shared_ptr<const plan::CompiledPlan> plan,
    const EventRelation& stream, EngineCaseConfig config);

}  // namespace ses::bench

#endif  // SES_BENCH_ENGINE_BENCH_H_
