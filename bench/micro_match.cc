// Microbenchmarks (google-benchmark) for matching throughput: events per
// second by pattern case, the §4.5 filter ablation across noise
// selectivities, and the storage scan path.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/matcher.h"
#include "workload/generic_generator.h"

namespace {

using namespace ses;
using namespace ses::bench;

EventRelation NoisyStream(int64_t num_events, double noise_weight) {
  workload::StreamOptions options;
  options.num_events = num_events;
  options.num_partitions = 4;
  options.type_weights = {
      {"C", 1}, {"D", 1}, {"P", 1}, {"B", 1}, {"X", noise_weight}};
  // Hour-scale gaps: the 264h pattern window then spans ~100 events, which
  // keeps the case-3 (group variable) instance growth in a realistic range.
  options.min_gap = duration::Hours(1);
  options.max_gap = duration::Hours(4);
  options.seed = 4242;
  return workload::GenerateStream(options);
}

void RunMatcherBenchmark(benchmark::State& state, const Pattern& pattern,
                         const EventRelation& stream, bool filter) {
  MatcherOptions options;
  options.enable_prefilter = filter;
  int64_t matches_found = 0;
  for (auto _ : state) {
    Result<std::vector<Match>> matches =
        MatchRelation(pattern, stream, options);
    SES_CHECK(matches.ok());
    matches_found = static_cast<int64_t>(matches->size());
    benchmark::DoNotOptimize(matches_found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["matches"] = static_cast<double>(matches_found);
}

/// Throughput for the three complexity cases of §4.4.
void BM_MatchCase1Exclusive(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/true,
                                      /*group_p=*/false);
  EventRelation stream = NoisyStream(state.range(0), 2.0);
  RunMatcherBenchmark(state, pattern, stream, /*filter=*/true);
}
BENCHMARK(BM_MatchCase1Exclusive)->Arg(2000)->Arg(8000);

void BM_MatchCase2NonExclusive(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/false,
                                      /*group_p=*/false);
  EventRelation stream = NoisyStream(state.range(0), 2.0);
  RunMatcherBenchmark(state, pattern, stream, /*filter=*/true);
}
BENCHMARK(BM_MatchCase2NonExclusive)->Arg(2000)->Arg(8000);

void BM_MatchCase3Group(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/false,
                                      /*group_p=*/true);
  EventRelation stream = NoisyStream(state.range(0), 2.0);
  RunMatcherBenchmark(state, pattern, stream, /*filter=*/true);
}
BENCHMARK(BM_MatchCase3Group)->Arg(2000)->Arg(4000);

/// Filter ablation: noise share sweep (range arg = noise weight versus a
/// combined relevant weight of 4).
void BM_FilterOn(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/true,
                                      /*group_p=*/true);
  EventRelation stream = NoisyStream(4000, static_cast<double>(state.range(0)));
  RunMatcherBenchmark(state, pattern, stream, /*filter=*/true);
}
BENCHMARK(BM_FilterOn)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

void BM_FilterOff(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/true,
                                      /*group_p=*/true);
  EventRelation stream = NoisyStream(4000, static_cast<double>(state.range(0)));
  RunMatcherBenchmark(state, pattern, stream, /*filter=*/false);
}
BENCHMARK(BM_FilterOff)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

/// Streaming push path (per-event cost including the watermark check).
void BM_StreamingPush(benchmark::State& state) {
  Pattern pattern = MedicationPattern(3, /*exclusive=*/true,
                                      /*group_p=*/false);
  EventRelation stream = NoisyStream(4000, 2.0);
  for (auto _ : state) {
    Matcher matcher(pattern);
    std::vector<Match> out;
    for (const Event& e : stream) {
      SES_CHECK(matcher.Push(e, &out).ok());
    }
    matcher.Flush(&out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_StreamingPush);

}  // namespace
