// Catalog scale sweep: how multi-pattern evaluation behaves as the number
// of registered plans grows. For each catalog size N in {1, 10, 100, 500}
// the same stream runs through three equivalent evaluators:
//
//   independent     N standalone serial engines, each fed the full stream —
//                   the baseline a deployment without src/catalog/ would
//                   run;
//   shared          CatalogEngine: the shared type index and the shared
//                   sec. 4.5 pre-filter bitmap;
//   shared-columnar the shared catalog fed through PushColumnar in
//                   1024-row ColumnarBatch slabs (built outside the timer),
//                   the layout ses_server's columnar clients send.
//
// All three deliver byte-identical per-plan match sets (docs/SEMANTICS.md
// sections 10-11); the bench checks the total match count agrees and reports
// wall time, events/sec, and the index-skip ratio (the fraction of
// (event, plan) pairs the type index routed away before any per-plan
// work). With --json the report lands in the BENCH_catalog.json schema
// that tools/bench_compare gates CI on (job perf-smoke).
//
// The plan family is the overlapping two-type chain also used by
// tests/catalog_test.cc: plan i watches types i and i+1 (mod 26) of the
// stream alphabet, joined on ID — so every stream type interests about
// 2N/26 plans and the index-skip ratio approaches 1 - 2/26 as N grows.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "engine/registry.h"
#include "event/columnar.h"
#include "plan/compiled_plan.h"
#include "query/pattern_builder.h"
#include "workload/generic_generator.h"

namespace {

using namespace ses;
using namespace ses::bench;

constexpr int kAlphabet = 26;

/// Rows per ColumnarBatch slab in the shared-columnar arm.
constexpr size_t kSlabRows = 1024;

std::string TypeName(int i) {
  return std::string(1, static_cast<char>('A' + (i % kAlphabet)));
}

/// Plan i of the family: type i then type i+1 (mod 26), joined on ID.
std::shared_ptr<const plan::CompiledPlan> FamilyPlan(int i) {
  PatternBuilder builder(workload::ChemotherapySchema());
  builder.BeginSet().Var("a").EndSet();
  builder.BeginSet().Var("x").EndSet();
  builder.WhereConst("a", "L", ComparisonOp::kEq, Value(TypeName(i)));
  builder.WhereConst("x", "L", ComparisonOp::kEq, Value(TypeName(i + 1)));
  builder.WhereVar("a", "ID", ComparisonOp::kEq, "x", "ID");
  builder.Within(duration::Hours(2));
  Result<Pattern> pattern = builder.Build();
  SES_CHECK(pattern.ok()) << pattern.status().ToString();
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern);
  SES_CHECK(plan.ok()) << plan.status().ToString();
  return std::move(*plan);
}

EventRelation MakeStream(int64_t events, uint64_t seed) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = 64;
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(5);
  options.seed = seed;
  options.type_weights.clear();
  for (int i = 0; i < kAlphabet; ++i) {
    options.type_weights.push_back({TypeName(i), 1.0});
  }
  return workload::GenerateStream(options);
}

/// N standalone serial engines, each fed the full stream.
struct IndependentFleet {
  std::vector<std::unique_ptr<engine::Engine>> engines;
  int64_t matches = 0;

  explicit IndependentFleet(
      const std::vector<std::shared_ptr<const plan::CompiledPlan>>& plans) {
    for (const auto& plan : plans) {
      engine::EngineOptions options;
      options.sink = [this](Match&&) { ++matches; };
      Result<std::unique_ptr<engine::Engine>> built =
          engine::CreateEngine("serial", plan, std::move(options));
      SES_CHECK(built.ok()) << built.status().ToString();
      engines.push_back(std::move(*built));
    }
  }

  void RunOnce(std::span<const Event> events) {
    matches = 0;
    for (const auto& engine : engines) {
      engine->Reset();
      SES_CHECK(engine->PushBatch(events).ok());
      SES_CHECK(engine->Flush().ok());
    }
  }
};

/// One CatalogEngine over all N plans.
struct CatalogFleet {
  std::shared_ptr<catalog::QueryCatalog> catalog;
  std::unique_ptr<catalog::CatalogEngine> engine;
  int64_t matches = 0;

  explicit CatalogFleet(
      const std::vector<std::shared_ptr<const plan::CompiledPlan>>& plans) {
    catalog = std::make_shared<catalog::QueryCatalog>();
    for (size_t i = 0; i < plans.size(); ++i) {
      SES_CHECK(catalog->Add("plan" + std::to_string(i), plans[i]).ok());
    }
    catalog::CatalogOptions options;
    options.sink = [this](std::string_view, Match&&) { ++matches; };
    Result<std::unique_ptr<catalog::CatalogEngine>> built =
        catalog::CatalogEngine::Create(catalog, std::move(options));
    SES_CHECK(built.ok()) << built.status().ToString();
    engine = std::move(*built);
  }

  void RunOnce(std::span<const Event> events) {
    matches = 0;
    engine->Reset();
    SES_CHECK(engine->PushBatch(events).ok());
    SES_CHECK(engine->Flush().ok());
  }

  void RunColumnar(std::span<const ColumnarBatch> slabs) {
    matches = 0;
    engine->Reset();
    for (const ColumnarBatch& slab : slabs) {
      SES_CHECK(engine->PushColumnar(slab).ok());
    }
    SES_CHECK(engine->Flush().ok());
  }
};

/// The stream cut into kSlabRows-row columnar slabs.
std::vector<ColumnarBatch> ColumnarSlabs(const EventRelation& stream) {
  const ColumnarBatch whole =
      ColumnarBatch::FromEvents(stream.schema(), stream.events());
  std::vector<ColumnarBatch> slabs;
  for (size_t begin = 0; begin < whole.size(); begin += kSlabRows) {
    slabs.push_back(
        whole.Slice(begin, std::min(kSlabRows, whole.size() - begin)));
  }
  return slabs;
}

void PrintRow(const char* mode, const CaseResult& result, int64_t matches,
              double skip_ratio) {
  std::printf("%-16s %12.4f %14.0f %10lld %12.3f\n", mode,
              result.wall_seconds.mean, result.events_per_sec,
              static_cast<long long>(matches), skip_ratio);
}

void SweepCatalogSizes(const Harness& harness, int64_t events,
                       const std::vector<int>& plan_counts,
                       BenchReport* report) {
  EventRelation stream = MakeStream(events, /*seed=*/41);
  std::span<const Event> span(stream.events());
  const std::vector<ColumnarBatch> slabs = ColumnarSlabs(stream);

  for (int num_plans : plan_counts) {
    std::vector<std::shared_ptr<const plan::CompiledPlan>> plans;
    plans.reserve(num_plans);
    for (int i = 0; i < num_plans; ++i) plans.push_back(FamilyPlan(i));

    std::printf("\nN = %d plan(s), %lld events, 26-type alphabet\n",
                num_plans, static_cast<long long>(events));
    std::printf("%-16s %12s %14s %10s %12s\n", "mode", "wall [s]",
                "events/s", "matches", "skip ratio");
    const std::string prefix = "plans" + std::to_string(num_plans) + "/";

    IndependentFleet independent(plans);
    CaseResult independent_result = harness.Run(
        prefix + "independent", static_cast<int64_t>(span.size()),
        [&](CaseRun& run) {
          independent.RunOnce(span);
          run.SetCounter("matches", independent.matches, /*exact=*/true);
        });
    const int64_t expected_matches = independent.matches;
    PrintRow("independent", independent_result, expected_matches, 0.0);
    report->Add(std::move(independent_result));

    // The catalog arms: name, columnar slabs.
    struct Arm {
      const char* name;
      bool columnar;
    };
    for (const Arm& arm : {Arm{"shared", false},
                           Arm{"shared-columnar", true}}) {
      CatalogFleet fleet(plans);
      CaseResult result = harness.Run(
          prefix + arm.name, static_cast<int64_t>(span.size()),
          [&](CaseRun& run) {
            if (arm.columnar) {
              fleet.RunColumnar(slabs);
            } else {
              fleet.RunOnce(span);
            }
            catalog::CatalogStats stats = fleet.engine->stats();
            run.SetCounter("matches", fleet.matches, /*exact=*/true);
            run.SetCounter("events_considered", stats.events_considered,
                           /*exact=*/true);
            run.SetCounter("events_skipped_by_index",
                           stats.events_skipped_by_index, /*exact=*/true);
            run.SetCounter("events_skipped_by_prefilter",
                           stats.events_skipped_by_prefilter,
                           /*exact=*/true);
          });
      SES_CHECK(fleet.matches == expected_matches)
          << "catalog (" << arm.name << ", N=" << num_plans << ") delivered "
          << fleet.matches << " matches, independent engines delivered "
          << expected_matches;
      catalog::CatalogStats stats = fleet.engine->stats();
      const double pairs =
          static_cast<double>(stats.events_pushed) * num_plans;
      const double skip_ratio =
          pairs > 0 ? stats.events_skipped_by_index / pairs : 0.0;
      PrintRow(arm.name, result, fleet.matches, skip_ratio);
      report->Add(std::move(result));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const int64_t events =
      args.full ? 20000 : static_cast<int64_t>(ScaleEvents(args, 6000));
  // Smoke keeps the full sweep shape (the committed baseline gates every
  // case) but the reduced event count bounds the N = 500 row's cost.
  const std::vector<int> plan_counts = {1, 10, 100, 500};
  Harness harness(DefaultHarnessOptions(args));
  BenchReport report("catalog");
  SweepCatalogSizes(harness, events, plan_counts, &report);
  std::printf(
      "\nAll three modes delivered identical match counts per N; 'shared' "
      "vs 'independent' is the cost of src/catalog/'s one-pass shared-work "
      "evaluation, 'shared-columnar' is the same catalog fed columnar "
      "slabs.\n");
  MaybeWriteReport(args, report);
  return 0;
}
