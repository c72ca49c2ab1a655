// Unit tests for the metrics substrate and the event pre-filter.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/filter.h"
#include "metrics/metrics.h"
#include "query/parser.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

TEST(Metrics, AtomicCounterAccumulatesAcrossThreads) {
  AtomicCounter c;
  c.Increment(2);
  EXPECT_EQ(c.value(), 2);
  c.Reset();
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIncrements);
}

TEST(Metrics, AtomicMaxGaugeKeepsMaximumAcrossThreads) {
  AtomicMaxGauge g;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i <= 1000; ++i) g.Observe(t * 1000 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.max(), (kThreads - 1) * 1000 + 1000);
  g.Reset();
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(g.current(), 0);
}

TEST(Metrics, StopwatchMeasuresElapsedTime) {
  Stopwatch watch;
  // Can't assert wall time robustly; only monotonicity and non-negativity.
  double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile unsigned sink = 0;  // unsigned: the sum wraps without UB
  for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.ElapsedSeconds(), first);
  EXPECT_GE(watch.ElapsedNanos(), 0);
  watch.Restart();
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

Event MakeEvent(const std::string& type) {
  return Event(1, 1,
               {Value(int64_t{1}), Value(type), Value(0.0),
                Value(std::string("u"))});
}

TEST(EventPreFilter, PassesOnlyRelevantEvents) {
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h",
      ChemotherapySchema());
  ASSERT_TRUE(pattern.ok());
  EventPreFilter filter(*pattern);
  EXPECT_TRUE(filter.active());
  EXPECT_TRUE(filter.ShouldProcess(MakeEvent("A")));
  EXPECT_TRUE(filter.ShouldProcess(MakeEvent("B")));
  EXPECT_FALSE(filter.ShouldProcess(MakeEvent("X")));
}

TEST(EventPreFilter, InactiveWhenAVariableIsUnconstrained) {
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a} -> {y} WHERE a.L = 'A' AND a.V = y.V WITHIN 10h",
      ChemotherapySchema());
  ASSERT_TRUE(pattern.ok());
  EventPreFilter filter(*pattern);
  EXPECT_FALSE(filter.active());
  // Everything passes through.
  EXPECT_TRUE(filter.ShouldProcess(MakeEvent("Z")));
}

TEST(EventPreFilter, DisjunctionAcrossVariables) {
  // An event satisfying ANY constant condition passes, even one of a
  // different variable's — the filter is a disjunction (§4.5).
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a, b} WHERE a.L = 'A' AND a.V >= 100 AND b.L = 'B' "
      "WITHIN 10h",
      ChemotherapySchema());
  ASSERT_TRUE(pattern.ok());
  EventPreFilter filter(*pattern);
  ASSERT_TRUE(filter.active());
  // Type A but V < 100: still passes via a.L = 'A'.
  EXPECT_TRUE(filter.ShouldProcess(MakeEvent("A")));
  EXPECT_FALSE(filter.ShouldProcess(MakeEvent("C")));
}

}  // namespace
}  // namespace ses
