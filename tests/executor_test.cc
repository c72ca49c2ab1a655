// Execution semantics tests (§4.3, Algorithms 1 and 2): windows and
// expiry, skip-till-next-match, nondeterministic branching, group loops,
// flush behaviour, and statistics.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baseline/reference_matcher.h"
#include "common/crc32c.h"
#include "core/matcher.h"
#include "core/trace.h"
#include "storage/checkpoint.h"
#include "query/parser.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

/// Builds a relation from (type, timestamp-hours) pairs; ID=1, V=index.
EventRelation MakeStream(
    const std::vector<std::pair<std::string, int64_t>>& spec) {
  EventRelation relation(ChemotherapySchema());
  double v = 0;
  for (const auto& [type, hours] : spec) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(int64_t{1}), Value(type), Value(v),
                              Value(std::string("u"))});
    v += 1;
  }
  return relation;
}

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

std::vector<std::vector<EventId>> IdSets(const std::vector<Match>& matches) {
  std::vector<std::vector<EventId>> sets;
  for (const Match& m : matches) {
    std::vector<EventId> ids = m.event_ids();
    std::sort(ids.begin(), ids.end());
    sets.push_back(std::move(ids));
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(Executor, SimpleSequenceMatch) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"B", 2}}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ(IdSets(*matches)[0], std::vector<EventId>({1, 2}));
}

TEST(Executor, NoMatchWhenOrderIsWrong) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"B", 1}, {"A", 2}}));
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(Executor, SetMatchesAnyPermutation) {
  Pattern p = MustParse(
      "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  for (auto spec : {std::vector<std::pair<std::string, int64_t>>{
                        {"A", 1}, {"B", 2}},
                    std::vector<std::pair<std::string, int64_t>>{
                        {"B", 1}, {"A", 2}}}) {
    Result<std::vector<Match>> matches = MatchRelation(p, MakeStream(spec));
    ASSERT_TRUE(matches.ok());
    EXPECT_EQ(matches->size(), 1u) << spec[0].first;
  }
}

TEST(Executor, WindowExcludesTooDistantEvents) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  // B arrives 11h after A: outside τ = 10h.
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"B", 12}}));
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(Executor, WindowBoundaryIsInclusive) {
  // Condition 3 uses |e.T - e'.T| <= τ: a span of exactly τ matches.
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"B", 11}}));
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(Executor, MatchEmittedOnExpiryBeforeEndOfStream) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  // Disable the pre-filter: with it, the X event would be dropped before
  // the expiry check and the match would only surface at Flush (§4.5
  // delays emission but never changes the result set).
  MatcherOptions options;
  options.enable_prefilter = false;
  Matcher matcher(p, options);
  std::vector<Match> out;
  EventRelation stream =
      MakeStream({{"A", 1}, {"B", 2}, {"X", 50}});  // X expires the instance
  ASSERT_TRUE(matcher.Push(stream.event(0), &out).ok());
  ASSERT_TRUE(matcher.Push(stream.event(1), &out).ok());
  EXPECT_TRUE(out.empty());  // still within the window, waiting greedily
  ASSERT_TRUE(matcher.Push(stream.event(2), &out).ok());
  EXPECT_EQ(out.size(), 1u);  // expiry reported the match
}

TEST(Executor, SkipTillNextMatchIgnoresNonFiringEvents) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  // Noise between A and B is skipped.
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"X", 2}, {"Y", 3}, {"B", 4}}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ(IdSets(*matches)[0], std::vector<EventId>({1, 4}));
}

TEST(Executor, EarliestEventWinsForEachVariable) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  // Two Bs: the instance started at A must take the first B (it cannot
  // skip a firing event), and the resulting match binds b/2, not b/3.
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"B", 2}, {"B", 3}}));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ(IdSets(*matches)[0], std::vector<EventId>({1, 2}));
}

TEST(Executor, GroupVariableIsGreedy) {
  Pattern p = MustParse(
      "PATTERN {a+} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"A", 2}, {"A", 3}, {"B", 4}}));
  ASSERT_TRUE(matches.ok());
  // Maximal match {1,2,3,4} plus the later-start runs {2,3,4} and {3,4}
  // (skip-till-next-match starts a fresh instance at every event).
  std::vector<std::vector<EventId>> sets = IdSets(*matches);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], std::vector<EventId>({1, 2, 3, 4}));
  EXPECT_EQ(sets[1], std::vector<EventId>({2, 3, 4}));
  EXPECT_EQ(sets[2], std::vector<EventId>({3, 4}));
}

TEST(Executor, NondeterministicBranchingProducesBothAssignments) {
  // Both variables match type A: an A event fires both transitions from
  // the start state, so both permutations are explored (Case 2 of §4.4).
  Pattern p = MustParse(
      "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'A' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"A", 2}}));
  ASSERT_TRUE(matches.ok());
  // {a/1,b/2} and {a/2,b/1} are distinct substitutions over the same ids.
  EXPECT_EQ(matches->size(), 2u);
  for (const Match& m : *matches) {
    std::vector<EventId> ids = m.event_ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, std::vector<EventId>({1, 2}));
  }
}

TEST(Executor, ConditionsAcrossVariablesInOneSet) {
  // a and b must agree on V regardless of binding order.
  Pattern p = MustParse(
      "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'B' AND a.V = b.V "
      "WITHIN 10h");
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, double v) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(int64_t{1}), Value(type), Value(v),
                              Value(std::string("u"))});
  };
  add("A", 1, 7);
  add("B", 2, 9);   // V mismatch — cannot pair with A/1
  add("B", 3, 7);   // pairs with A/1
  Result<std::vector<Match>> matches = MatchRelation(p, relation);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ(IdSets(*matches)[0], std::vector<EventId>({1, 3}));
}

TEST(Executor, GroupConditionsCheckedAgainstEveryBinding) {
  // c.V = p.V must hold for all bindings of p+ (decomposition semantics).
  Pattern p = MustParse(
      "PATTERN {p+} -> {c} WHERE p.L = 'P' AND c.L = 'C' AND c.V = p.V "
      "WITHIN 10h");
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, double v) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(int64_t{1}), Value(type), Value(v),
                              Value(std::string("u"))});
  };
  add("P", 1, 5);
  add("P", 2, 6);  // different V: a run containing both 1 and 2 has no c
  add("C", 3, 5);  // matches runs whose p-bindings all have V=5
  Result<std::vector<Match>> matches = MatchRelation(p, relation);
  ASSERT_TRUE(matches.ok());
  // The run started at P/1 is forced to absorb P/2 (greedy loop fires? No:
  // the loop has no cross condition between p bindings, so P/2 does fire
  // the loop of the run {p/1} — making c/3 unreachable for it). The run
  // started at P/2 binds c? c.V=5 vs p.V=6 fails. No match survives...
  // except the fresh run at P/2 cannot bind C/3 either. Verify against the
  // reference matcher rather than intuition:
  Result<std::vector<Match>> reference =
      baseline::ReferenceMatch(p, relation);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameMatchSet(*matches, *reference));
  for (const Match& m : *matches) {
    EXPECT_TRUE(baseline::CheckMatchInvariants(p, m).ok());
  }
}

TEST(Executor, FlushReportsPendingAcceptingInstances) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Matcher matcher(p);
  std::vector<Match> out;
  EventRelation stream = MakeStream({{"A", 1}, {"B", 2}});
  ASSERT_TRUE(matcher.Push(stream.event(0), &out).ok());
  ASSERT_TRUE(matcher.Push(stream.event(1), &out).ok());
  EXPECT_TRUE(out.empty());
  matcher.Flush(&out);
  EXPECT_EQ(out.size(), 1u);
  // Flush also clears the instances: a second flush adds nothing.
  matcher.Flush(&out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Executor, ResetForgetsEverything) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  Matcher matcher(p);
  std::vector<Match> out;
  EventRelation stream = MakeStream({{"A", 5}, {"B", 6}});
  ASSERT_TRUE(matcher.Push(stream.event(0), &out).ok());
  matcher.Reset();
  // After reset the watermark is gone: an older timestamp is acceptable,
  // and the pending A/1 no longer exists.
  EventRelation stream2 = MakeStream({{"B", 1}});
  ASSERT_TRUE(matcher.Push(stream2.event(0), &out).ok());
  matcher.Flush(&out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(matcher.stats().events_seen, 1);
}

TEST(Executor, PrefilterSkipsIrrelevantEventsEntirely) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  ExecutorStats stats;
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"X", 2}, {"X", 3}, {"B", 4}}),
      MatcherOptions{}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(stats.events_seen, 4);
  EXPECT_EQ(stats.events_filtered, 2);
  EXPECT_EQ(stats.events_processed, 2);
  EXPECT_EQ(matches->size(), 1u);
}

TEST(Executor, PrefilterDisabledForUnconstrainedVariables) {
  // y has no constant condition: the filter must deactivate itself, and
  // every event reaches the instances (otherwise y could never bind).
  Pattern p = MustParse(
      "PATTERN {a} -> {y} WHERE a.L = 'A' AND a.V = y.V WITHIN 10h");
  EventRelation relation(ChemotherapySchema());
  relation.AppendUnchecked(duration::Hours(1),
                           {Value(int64_t{1}), Value(std::string("A")),
                            Value(2.0), Value(std::string("u"))});
  relation.AppendUnchecked(duration::Hours(2),
                           {Value(int64_t{1}), Value(std::string("Z")),
                            Value(2.0), Value(std::string("u"))});
  ExecutorStats stats;
  Result<std::vector<Match>> matches =
      MatchRelation(p, relation, MatcherOptions{}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(stats.events_filtered, 0);
  EXPECT_EQ(matches->size(), 1u);  // {a/1, y/2} via the V equality
}

TEST(Executor, StatsCountInstancesAndTransitions) {
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  ExecutorStats stats;
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"B", 2}}), MatcherOptions{}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(stats.instances_created, 2);  // a/1 bound, then b/2 bound
  EXPECT_EQ(stats.max_simultaneous_instances, 1);
  EXPECT_EQ(stats.matches_emitted, 1);
  EXPECT_GT(stats.transitions_evaluated, 0);
  EXPECT_GT(stats.conditions_evaluated, 0);
}

TEST(Executor, TimestampConditionsInPatterns) {
  // Explicit timestamp conditions via the reserved attribute T.
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' AND b.T >= 10800 "
      "WITHIN 10h");
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"B", 2}, {"A", 4}, {"B", 5}}));
  ASSERT_TRUE(matches.ok());
  // b.T >= 3h excludes the B at hour 2 (event e2); the instance started at
  // e1 must skip it and take the B at hour 5 (e4). The A at hour 4 (e3)
  // also matches with e4.
  std::vector<std::vector<EventId>> sets = IdSets(*matches);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], std::vector<EventId>({1, 4}));
  EXPECT_EQ(sets[1], std::vector<EventId>({3, 4}));
}

TEST(Executor, ChainedConditionsAllowCrossPartitionPoisoning) {
  // Documented semantics pitfall (see examples/rfid_tracking.cpp and
  // DESIGN.md): with a CHAIN of equality conditions a.ID=b.ID, b.ID=x.ID,
  // the pair (a, x) is unconstrained. An instance holding only {a} then
  // *fires* on a foreign-partition X event, and skip-till-next-match
  // forces it onto that event — the run is poisoned and dies. Closing the
  // conditions pairwise makes the foreign event non-firing (it is skipped)
  // and the match is found.
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours,
                         int64_t id) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(id), Value(type), Value(0.0),
                              Value(std::string("u"))});
  };
  add("A", 1, 1);  // a for partition 1
  add("X", 2, 2);  // foreign X poisons the chained pattern
  add("X", 3, 1);  // partition 1's X
  add("B", 4, 1);  // partition 1's B

  Pattern chained = MustParse(
      "PATTERN {a, b, x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND b.ID = x.ID WITHIN 10h");
  Result<std::vector<Match>> chained_matches =
      MatchRelation(chained, relation);
  ASSERT_TRUE(chained_matches.ok());
  EXPECT_TRUE(chained_matches->empty())
      << "the chained pattern is expected to lose the match";

  Pattern closed = MustParse(
      "PATTERN {a, b, x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND b.ID = x.ID AND a.ID = x.ID WITHIN 10h");
  Result<std::vector<Match>> closed_matches = MatchRelation(closed, relation);
  ASSERT_TRUE(closed_matches.ok());
  ASSERT_EQ(closed_matches->size(), 1u);
  EXPECT_EQ(IdSets(*closed_matches)[0], std::vector<EventId>({1, 3, 4}));

  // The reference matcher exhibits exactly the same behaviour — this is a
  // property of the operational semantics, not an implementation bug.
  Result<std::vector<Match>> reference =
      baseline::ReferenceMatch(chained, relation);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(reference->empty());
}

TEST(Executor, EmptyRelationYieldsNoMatches) {
  Pattern p = MustParse("PATTERN {a} WHERE a.L = 'A' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, EventRelation(ChemotherapySchema()));
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(Executor, SingleVariablePatternMatchesEachEvent) {
  Pattern p = MustParse("PATTERN {a} WHERE a.L = 'A' WITHIN 10h");
  Result<std::vector<Match>> matches = MatchRelation(
      p, MakeStream({{"A", 1}, {"X", 2}, {"A", 3}}));
  ASSERT_TRUE(matches.ok());
  std::vector<std::vector<EventId>> sets = IdSets(*matches);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], std::vector<EventId>({1}));
  EXPECT_EQ(sets[1], std::vector<EventId>({3}));
}

TEST(Executor, GroupOnlyPatternReportsMaximalRuns) {
  Pattern p = MustParse("PATTERN {a+} WHERE a.L = 'A' WITHIN 10h");
  Result<std::vector<Match>> matches =
      MatchRelation(p, MakeStream({{"A", 1}, {"A", 2}}));
  ASSERT_TRUE(matches.ok());
  std::vector<std::vector<EventId>> sets = IdSets(*matches);
  // Runs: {1,2} (started at 1, greedy) and {2} (started at 2).
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], std::vector<EventId>({1, 2}));
  EXPECT_EQ(sets[1], std::vector<EventId>({2}));
}

TEST(Executor, RestoreRejectsUnboundOrUnorderedInstances) {
  // Expiry only looks at the head of Ω, so a checkpoint must hold bound
  // instances in first-binding order; anything else is Corruption.
  Pattern p = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' WITHIN 10h");
  std::shared_ptr<const SesAutomaton> automaton = CompileAutomaton(p);
  EventRelation events = MakeStream({{"A", 1}, {"A", 2}});
  const Transition& bind_a =
      automaton->outgoing(automaton->start_state()).front();
  // One instance per entry, each binding `a` to the listed events.
  auto checkpoint = [&](const std::vector<std::vector<size_t>>& omega) {
    std::string bytes;
    storage::PutCount(&bytes, omega.size());
    for (const std::vector<size_t>& bindings : omega) {
      storage::PutSigned(&bytes, bind_a.to);
      storage::PutCount(&bytes, bindings.size());
      for (size_t e : bindings) {
        storage::PutSigned(&bytes, bind_a.variable);
        storage::PutEventRecord(&bytes, events.event(e), p.schema());
      }
    }
    for (int counter = 0; counter < 10; ++counter) {
      storage::PutSigned(&bytes, 0);
    }
    return bytes;
  };
  auto restore = [&](const std::string& bytes) {
    SesExecutor executor(automaton.get(), MatcherOptions{});
    const char* cursor = bytes.data();
    return executor.Restore(&cursor, bytes.data() + bytes.size()).code();
  };
  EXPECT_EQ(restore(checkpoint({{0}, {1}})), StatusCode::kOk);
  EXPECT_EQ(restore(checkpoint({{1}, {0}})), StatusCode::kCorruption);
  EXPECT_EQ(restore(checkpoint({{0}, {}})), StatusCode::kCorruption);
}

// --- Pinned runs: Ω order, emission order, statistics and checkpoints ---
//
// The executor steps Ω in place; the values below were recorded from the
// rebuilding executor it replaced (a fresh Ω′ per event), so any change to
// Ω′ order, the unsorted emission order, one of the ten counters, the
// checkpoint bytes or the trace shows here.

std::string StatsLine(const ExecutorStats& s) {
  std::ostringstream line;
  line << "seen=" << s.events_seen << " filtered=" << s.events_filtered
       << " processed=" << s.events_processed
       << " created=" << s.instances_created
       << " expired=" << s.instances_expired
       << " max=" << s.max_simultaneous_instances
       << " evaluated=" << s.transitions_evaluated
       << " fired=" << s.transitions_fired
       << " conditions=" << s.conditions_evaluated
       << " matches=" << s.matches_emitted;
  return line.str();
}

uint32_t Crc(const std::string& bytes) {
  return crc32c::Value(bytes.data(), bytes.size());
}

struct PinnedRun {
  std::vector<std::string> matches;  // emission order, unsorted
  std::string stats;
  std::string checkpoint;  // SesExecutor::Checkpoint after `checkpoint_after`
  std::string trace;       // TextTracer over the whole run
};

PinnedRun RunOnce(const Pattern& pattern, const EventRelation& stream,
                  size_t checkpoint_after, bool traced) {
  std::shared_ptr<const SesAutomaton> automaton = CompileAutomaton(pattern);
  SesExecutor executor(automaton.get(), MatcherOptions{});
  TextTracer tracer(automaton.get());
  if (traced) executor.set_observer(&tracer);
  PinnedRun run;
  std::vector<Match> matches;
  for (size_t i = 0; i < stream.size(); ++i) {
    executor.Consume(stream.event(i), &matches);
    if (i + 1 == checkpoint_after) executor.Checkpoint(&run.checkpoint);
  }
  executor.Flush(&matches);
  for (const Match& m : matches) run.matches.push_back(m.ToString(pattern));
  run.stats = StatsLine(executor.stats());
  run.trace = tracer.trace();
  return run;
}

/// Runs the stream untraced (the executor's fast path for finished
/// instances only runs without an observer) and traced; tracing must not
/// change the run.
PinnedRun RunPinned(const Pattern& pattern, const EventRelation& stream,
                    size_t checkpoint_after) {
  PinnedRun run = RunOnce(pattern, stream, checkpoint_after, false);
  PinnedRun traced = RunOnce(pattern, stream, checkpoint_after, true);
  EXPECT_EQ(traced.matches, run.matches);
  EXPECT_EQ(traced.stats, run.stats);
  EXPECT_EQ(Crc(traced.checkpoint), Crc(run.checkpoint));
  run.trace = std::move(traced.trace);
  return run;
}

/// {a, b+} -> {c} over A-heavy bursts: an instance in {b+} fires both `a`
/// and the `b+` loop while younger live instances follow it in Ω, so
/// branches overflow mid-Ω; X events are pre-filtered and expire
/// instances on their own.
Pattern BranchingPattern() {
  return MustParse(
      "PATTERN {a, b+} -> {c} WHERE a.L = 'A' AND b.L = 'A' AND "
      "c.L = 'B' WITHIN 4h");
}

EventRelation BranchingStream() {
  return MakeStream({{"A", 1},  {"A", 2},  {"A", 3},  {"B", 4},
                     {"A", 5},  {"X", 6},  {"A", 7},  {"B", 8},
                     {"A", 9},  {"X", 12}, {"A", 13}, {"A", 14},
                     {"A", 15}, {"B", 16}, {"B", 17}, {"X", 25}});
}

TEST(ExecutorPinned, RunningExampleStatsAndEmissionOrder) {
  Result<Pattern> q1 = workload::PaperQ1Pattern();
  ASSERT_TRUE(q1.ok());
  PinnedRun run = RunPinned(*q1, workload::PaperEventRelation(), 7);
  EXPECT_EQ(run.matches,
            std::vector<std::string>(
                {"{c/e1, d/e3, p+/e4, p+/e9, b/e12}",
                 "{p+/e6, d/e7, c/e8, p+/e10, p+/e11, b/e13}",
                 "{d/e7, c/e8, p+/e10, p+/e11, b/e13}"}));
  EXPECT_EQ(run.stats,
            "seen=14 filtered=0 processed=14 created=37 expired=9 max=9 "
            "evaluated=181 fired=37 conditions=222 matches=3");
}

TEST(ExecutorPinned, BranchingStreamStatsAndEmissionOrder) {
  PinnedRun run = RunPinned(BranchingPattern(), BranchingStream(), 5);
  EXPECT_EQ(run.matches, std::vector<std::string>({
                             "{a/e1, b+/e2, b+/e3, c/e4}",
                             "{b+/e1, a/e2, b+/e3, c/e4}",
                             "{b+/e1, b+/e2, a/e3, c/e4}",
                             "{a/e2, b+/e3, c/e4}",
                             "{b+/e2, a/e3, c/e4}",
                             "{a/e5, b+/e7, c/e8}",
                             "{b+/e5, a/e7, c/e8}",
                             "{a/e11, b+/e12, b+/e13, c/e14}",
                             "{b+/e11, a/e12, b+/e13, c/e14}",
                             "{b+/e11, b+/e12, a/e13, c/e14}",
                             "{a/e12, b+/e13, c/e14}",
                             "{b+/e12, a/e13, c/e14}",
                         }));
  EXPECT_EQ(run.stats,
            "seen=16 filtered=3 processed=13 created=72 expired=32 max=14 "
            "evaluated=124 fired=72 conditions=154 matches=12");
}

TEST(ExecutorPinned, MidStreamCheckpointBytes) {
  Result<Pattern> q1 = workload::PaperQ1Pattern();
  ASSERT_TRUE(q1.ok());
  PinnedRun example = RunPinned(*q1, workload::PaperEventRelation(), 7);
  EXPECT_EQ(example.checkpoint.size(), 254u);
  EXPECT_EQ(Crc(example.checkpoint), 3661507105u);
  PinnedRun branching = RunPinned(BranchingPattern(), BranchingStream(), 5);
  EXPECT_EQ(branching.checkpoint.size(), 745u);
  EXPECT_EQ(Crc(branching.checkpoint), 2071462818u);
}

TEST(ExecutorPinned, TraceOfBranchingStream) {
  PinnedRun run = RunPinned(BranchingPattern(), BranchingStream(), 0);
  EXPECT_EQ(run.trace.size(), 6446u);
  EXPECT_EQ(Crc(run.trace), 1633104505u);
}

}  // namespace
}  // namespace ses
