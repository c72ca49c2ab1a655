// Property-based tests: randomized patterns and streams cross-validated
// against the clean-room reference matcher, the Definition 2 invariant
// checker, the §4.5 filter, the brute force baseline, and the complexity
// bounds of §4.4. Parameterized over seeds (TEST_P) so each seed is an
// independently reported case.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "baseline/brute_force.h"
#include "baseline/reference_matcher.h"
#include "common/random.h"
#include "core/matcher.h"
#include "event/csv.h"
#include "query/parser.h"
#include "query/pattern_builder.h"
#include "query/unparse.h"
#include "storage/table_reader.h"
#include "storage/table_writer.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"
#include "workload/window.h"

#include "executor_test_peer.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

/// Generates a random but always-valid SES pattern over the chemo schema.
/// Event types are drawn from {A, B, C}; because only three types exist
/// and patterns may reuse a type for several variables, both mutually
/// exclusive and non-exclusive patterns arise.
Pattern RandomPattern(Random* random) {
  const std::string types[] = {"A", "B", "C"};
  PatternBuilder builder(ChemotherapySchema());
  int num_sets = 1 + static_cast<int>(random->Uniform(3));
  std::vector<std::string> names;
  for (int s = 0; s < num_sets; ++s) {
    builder.BeginSet();
    int num_vars = 1 + static_cast<int>(random->Uniform(3));
    for (int v = 0; v < num_vars; ++v) {
      std::string name = "v";
      name += std::to_string(names.size());
      bool group = random->Bernoulli(0.3);
      // The very first variable stays required so the pattern is valid.
      bool optional = !group && !names.empty() && random->Bernoulli(0.2);
      if (group) {
        builder.GroupVar(name);
      } else if (optional) {
        builder.OptionalVar(name);
      } else {
        builder.Var(name);
      }
      // Every variable gets a type constraint (keeps the filter active and
      // result sets small enough to compare exhaustively).
      builder.WhereConst(name, "L", ComparisonOp::kEq,
                         Value(types[random->Uniform(3)]));
      names.push_back(name);
    }
    builder.EndSet();
  }
  // A few random cross-variable conditions on ID or V.
  int num_conditions = static_cast<int>(random->Uniform(3));
  for (int i = 0; i < num_conditions && names.size() >= 2; ++i) {
    size_t a = random->Index(names.size());
    size_t b = random->Index(names.size());
    if (a == b) continue;
    if (random->Bernoulli(0.7)) {
      builder.WhereVar(names[a], "ID", ComparisonOp::kEq, names[b], "ID");
    } else {
      builder.WhereVar(names[a], "V", ComparisonOp::kLe, names[b], "V");
    }
  }
  builder.Within(
      duration::Minutes(30 + static_cast<int64_t>(random->Uniform(300))));
  Result<Pattern> pattern = builder.Build();
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

EventRelation RandomStream(uint64_t seed, int64_t num_events = 80) {
  workload::StreamOptions options;
  options.num_events = num_events;
  options.num_partitions = 2;
  options.type_weights = {{"A", 1}, {"B", 1}, {"C", 1}, {"X", 1}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(15);
  options.value_range = 4;
  options.seed = seed * 7919 + 13;
  return workload::GenerateStream(options);
}

class RandomizedMatching : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedMatching, AutomatonAgreesWithReferenceMatcher) {
  Random random(GetParam());
  for (int round = 0; round < 5; ++round) {
    Pattern pattern = RandomPattern(&random);
    EventRelation stream = RandomStream(GetParam() * 10 + round);
    Result<std::vector<Match>> automaton = MatchRelation(pattern, stream);
    Result<std::vector<Match>> reference =
        baseline::ReferenceMatch(pattern, stream);
    ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(SameMatchSet(*automaton, *reference))
        << "pattern " << pattern.ToString() << ": automaton found "
        << automaton->size() << " matches, reference " << reference->size();
  }
}

TEST_P(RandomizedMatching, EveryMatchSatisfiesDefinition2Invariants) {
  Random random(GetParam() + 1000);
  for (int round = 0; round < 5; ++round) {
    Pattern pattern = RandomPattern(&random);
    EventRelation stream = RandomStream(GetParam() * 31 + round);
    Result<std::vector<Match>> matches = MatchRelation(pattern, stream);
    ASSERT_TRUE(matches.ok());
    for (const Match& match : *matches) {
      Status invariants = baseline::CheckMatchInvariants(pattern, match);
      EXPECT_TRUE(invariants.ok())
          << invariants.ToString() << " for " << match.ToString(pattern)
          << " under " << pattern.ToString();
    }
  }
}

TEST_P(RandomizedMatching, FilterOnAndOffAreEquivalent) {
  Random random(GetParam() + 2000);
  for (int round = 0; round < 5; ++round) {
    Pattern pattern = RandomPattern(&random);
    EventRelation stream = RandomStream(GetParam() * 17 + round);
    MatcherOptions on;
    on.enable_prefilter = true;
    MatcherOptions off;
    off.enable_prefilter = false;
    ExecutorStats stats_on;
    ExecutorStats stats_off;
    Result<std::vector<Match>> with_filter =
        MatchRelation(pattern, stream, on, &stats_on);
    Result<std::vector<Match>> without_filter =
        MatchRelation(pattern, stream, off, &stats_off);
    ASSERT_TRUE(with_filter.ok());
    ASSERT_TRUE(without_filter.ok());
    EXPECT_TRUE(SameMatchSet(*with_filter, *without_filter))
        << pattern.ToString();
    // §4.5: the filter reduces iterations, not instances.
    EXPECT_LE(stats_on.events_processed, stats_off.events_processed);
    EXPECT_EQ(stats_on.max_simultaneous_instances,
              stats_off.max_simultaneous_instances)
        << pattern.ToString();
  }
}

TEST_P(RandomizedMatching, StreamingEqualsBatch) {
  Random random(GetParam() + 3000);
  Pattern pattern = RandomPattern(&random);
  EventRelation stream = RandomStream(GetParam() * 41 + 5);
  Result<std::vector<Match>> batch = MatchRelation(pattern, stream);
  ASSERT_TRUE(batch.ok());
  Matcher matcher(pattern);
  std::vector<Match> pushed;
  for (const Event& e : stream) {
    ASSERT_TRUE(matcher.Push(e, &pushed).ok());
  }
  matcher.Flush(&pushed);
  EXPECT_TRUE(SameMatchSet(*batch, pushed));
}

TEST_P(RandomizedMatching, UnparseRoundTripPreservesSemantics) {
  Random random(GetParam() + 6000);
  for (int round = 0; round < 4; ++round) {
    Pattern pattern = RandomPattern(&random);
    std::string text = UnparsePattern(pattern);
    Result<Pattern> reparsed = ParsePattern(text, pattern.schema());
    ASSERT_TRUE(reparsed.ok()) << text << "\n" << reparsed.status().ToString();
    EXPECT_EQ(UnparsePattern(*reparsed), text);
    EventRelation stream = RandomStream(GetParam() * 29 + round);
    Result<std::vector<Match>> original = MatchRelation(pattern, stream);
    Result<std::vector<Match>> roundtrip = MatchRelation(*reparsed, stream);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(roundtrip.ok());
    EXPECT_TRUE(SameMatchSet(*original, *roundtrip)) << text;
  }
}

TEST_P(RandomizedMatching, SesIsSubsetOfBruteForceForSingletonPatterns) {
  Random random(GetParam() + 4000);
  for (int round = 0; round < 3; ++round) {
    Pattern pattern = RandomPattern(&random);
    if (pattern.HasGroupVariables() || pattern.HasOptionalVariables() ||
        pattern.num_variables() > 4) {
      continue;
    }
    EventRelation stream = RandomStream(GetParam() * 53 + round);
    Result<std::vector<Match>> ses_matches = MatchRelation(pattern, stream);
    Result<std::vector<Match>> bf_matches =
        baseline::BruteForceMatchRelation(pattern, stream);
    ASSERT_TRUE(ses_matches.ok());
    ASSERT_TRUE(bf_matches.ok());
    std::set<std::vector<std::pair<VariableId, EventId>>> bf_keys;
    for (const Match& m : *bf_matches) bf_keys.insert(m.SubstitutionKey());
    for (const Match& m : *ses_matches) {
      EXPECT_TRUE(bf_keys.count(m.SubstitutionKey()) > 0)
          << pattern.ToString() << ": " << m.ToString(pattern);
    }
  }
}

/// Rotates through a few pairwise mutually exclusive patterns.
Result<Pattern> ExclusivePatternForSeed(uint64_t seed) {
  const char* queries[] = {
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND "
      "x.L = 'C' WITHIN 3h",
      "PATTERN {a, b+} WHERE a.L = 'A' AND b.L = 'B' WITHIN 2h",
      "PATTERN {a} -> {b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND "
      "x.L = 'C' WITHIN 4h",
  };
  return ParsePattern(queries[seed % 3], ChemotherapySchema());
}

TEST_P(RandomizedMatching, Case1BoundNoBranchingForExclusiveVariables) {
  // Lemma 1 / Theorem 1: with pairwise mutually exclusive variables an
  // instance never branches — every event fires at most one transition per
  // instance, so instances created == transitions fired and, per event,
  // the instance count grows by at most one (the fresh start instance).
  Pattern pattern = *ExclusivePatternForSeed(GetParam());
  EventRelation stream = RandomStream(GetParam() * 67 + 3, 200);
  ExecutorStats stats;
  Result<std::vector<Match>> matches =
      MatchRelation(pattern, stream, MatcherOptions{}, &stats);
  ASSERT_TRUE(matches.ok());
  ASSERT_TRUE(pattern.ArePairwiseMutuallyExclusive());
  // No branching: each consumed event extends an instance at most once, so
  // the number of instances alive can never exceed the number of events in
  // the window (each instance is pinned to a distinct start event).
  int64_t w = workload::ComputeWindowSize(stream, pattern.window());
  EXPECT_LE(stats.max_simultaneous_instances, w);
  EXPECT_EQ(stats.instances_created, stats.transitions_fired);
}

/// Checks Ω's invariants after `executor` consumed an event at `now`:
/// ordered by first-binding time, no unbound instance, nothing expired,
/// and the pending floor equal to a full scan.
void ExpectOmegaInvariants(const SesExecutor& executor, Timestamp now,
                           Duration window, const std::string& context) {
  std::span<const AutomatonInstance> omega =
      SesExecutorTestPeer::Omega(executor);
  ASSERT_EQ(omega.size(), executor.num_active_instances()) << context;
  Timestamp floor = SesExecutorTestPeer::kNoPending;
  for (size_t i = 0; i < omega.size(); ++i) {
    ASSERT_FALSE(omega[i].buffer.empty()) << context << " slot " << i;
    Timestamp first = omega[i].buffer.min_timestamp();
    if (i > 0) {
      ASSERT_LE(omega[i - 1].buffer.min_timestamp(), first)
          << context << " slot " << i;
    }
    ASSERT_LE(now - first, window) << context << " slot " << i;
    floor = std::min(floor, first);
  }
  ASSERT_EQ(SesExecutorTestPeer::PendingFloor(executor), floor) << context;
}

TEST_P(RandomizedMatching, InPlaceOmegaStaysOrderedByFirstBinding) {
  Random random(GetParam() + 7000);
  for (int round = 0; round < 5; ++round) {
    Pattern pattern = RandomPattern(&random);
    EventRelation stream = RandomStream(GetParam() * 53 + round, 160);
    std::shared_ptr<const SesAutomaton> automaton =
        CompileAutomaton(pattern);
    for (bool prefilter : {true, false}) {
      MatcherOptions options;
      options.enable_prefilter = prefilter;
      SesExecutor executor(automaton.get(), options);
      std::vector<Match> matches;
      for (const Event& event : stream) {
        executor.Consume(event, &matches);
        ExpectOmegaInvariants(
            executor, event.timestamp(), pattern.window(),
            pattern.ToString() + " at e" + std::to_string(event.id()) +
                (prefilter ? " (filtered)" : " (unfiltered)"));
        if (HasFatalFailure()) return;
      }
      executor.Flush(&matches);
      EXPECT_EQ(executor.num_active_instances(), 0u);
      EXPECT_EQ(SesExecutorTestPeer::PendingFloor(executor),
                SesExecutorTestPeer::kNoPending);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedMatching,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

class RandomizedStorage : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedStorage, TableAndCsvRoundTripsAreLossless) {
  EventRelation original = RandomStream(GetParam() + 500, 300);
  // Binary table round trip.
  std::string path = ::testing::TempDir() + "ses_prop_" +
                     std::to_string(GetParam()) + ".sestbl";
  ASSERT_TRUE(storage::WriteTable(original, path).ok());
  Result<EventRelation> loaded = storage::ReadTable(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());
  // CSV round trip.
  Result<EventRelation> csv =
      ReadCsvString(WriteCsvString(original), original.schema());
  ASSERT_TRUE(csv.ok());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(csv->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->event(i).timestamp(), original.event(i).timestamp());
    EXPECT_EQ(loaded->event(i).values(), original.event(i).values());
    EXPECT_EQ(csv->event(i).timestamp(), original.event(i).timestamp());
    EXPECT_EQ(csv->event(i).values(), original.event(i).values());
  }
}

TEST_P(RandomizedStorage, MatchingIsIdenticalOnStoredAndInMemoryData) {
  // End-to-end integration: generate → store → load → match must equal
  // matching the in-memory relation directly.
  EventRelation original = RandomStream(GetParam() + 900, 150);
  Random random(GetParam());
  Pattern pattern = RandomPattern(&random);
  std::string path = ::testing::TempDir() + "ses_prop_m_" +
                     std::to_string(GetParam()) + ".sestbl";
  ASSERT_TRUE(storage::WriteTable(original, path).ok());
  Result<EventRelation> loaded = storage::ReadTable(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());
  Result<std::vector<Match>> direct = MatchRelation(pattern, original);
  Result<std::vector<Match>> stored = MatchRelation(pattern, *loaded);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(SameMatchSet(*direct, *stored));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedStorage,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

}  // namespace
}  // namespace ses
