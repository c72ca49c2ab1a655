// Tests for partitioned execution: partition-attribute detection,
// equivalence with the global matcher when the equality graph is complete,
// and the documented non-equivalences: chained conditions, and a complete
// graph with a group variable in the first event set.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/automaton_builder.h"
#include "core/partitioned.h"
#include "query/parser.h"
#include "query/pattern_builder.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

TEST(PartitionAttribute, DetectsCompleteEqualityGraph) {
  Pattern complete = MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN 10h");
  Result<int> attr = FindPartitionAttribute(complete);
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  EXPECT_EQ(*attr, 0);  // ID
}

TEST(PartitionAttribute, RejectsChains) {
  // Q1's Θ is a chain (no p-d, p-b, c-b conditions): not partitionable.
  Result<Pattern> q1 = workload::PaperQ1Pattern();
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(FindPartitionAttribute(*q1).status().code(),
            StatusCode::kNotFound);
}

TEST(PartitionAttribute, RejectsNonEqualityAndWrongAttributes) {
  Pattern inequality = MustParse(
      "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'B' AND a.ID <= b.ID "
      "AND b.ID <= a.ID WITHIN 10h");
  // a.ID <= b.ID twice is logically equality, but only kEq conditions
  // count — the detector is syntactic, as documented.
  EXPECT_FALSE(FindPartitionAttribute(inequality).ok());

  Pattern on_v = MustParse(
      "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'B' AND a.V = b.V "
      "WITHIN 10h");
  // V is DOUBLE: excluded from partition keys.
  EXPECT_FALSE(FindPartitionAttribute(on_v).ok());
}

TEST(PartitionAttribute, SingleVariablePatternIsTriviallyComplete) {
  Pattern single = MustParse("PATTERN {a} WHERE a.L = 'A' WITHIN 10h");
  Result<int> attr = FindPartitionAttribute(single);
  ASSERT_TRUE(attr.ok());
}

EventRelation PartitionedStream(uint64_t seed, int partitions,
                                int64_t events) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = partitions;
  options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(10);
  options.seed = seed;
  return workload::GenerateStream(options);
}

TEST(PartitionedMatcher, EquivalentToGlobalMatcherOnCompletePatterns) {
  Pattern pattern = MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN 5h");
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventRelation stream = PartitionedStream(seed, 5, 300);
    Result<std::vector<Match>> global = MatchRelation(pattern, stream);
    PartitionedStats stats;
    Result<std::vector<Match>> partitioned = PartitionedMatchRelation(
        pattern, stream, /*attribute=*/-1, MatcherOptions{}, &stats);
    ASSERT_TRUE(global.ok());
    ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
    EXPECT_TRUE(SameMatchSet(*global, *partitioned)) << "seed " << seed;
    EXPECT_EQ(stats.partitions_created, 5);
  }
}

TEST(PartitionedMatcher, ChainedPatternFindsMoreThanGlobal) {
  // Under a chain the global automaton loses matches to poisoning while
  // per-partition execution keeps them — which is exactly why the
  // auto-detector refuses chains. Forcing the partition attribute shows
  // the difference.
  Pattern chained = MustParse(
      "PATTERN {a, b, x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND b.ID = x.ID WITHIN 10h");
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, int64_t id) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(id), Value(type), Value(0.0),
                              Value(std::string("u"))});
  };
  add("A", 1, 1);
  add("X", 2, 2);
  add("X", 3, 1);
  add("B", 4, 1);
  Result<std::vector<Match>> global = MatchRelation(chained, relation);
  ASSERT_TRUE(global.ok());
  EXPECT_TRUE(global->empty());
  Result<std::vector<Match>> partitioned =
      PartitionedMatchRelation(chained, relation, /*attribute=*/0);
  ASSERT_TRUE(partitioned.ok());
  EXPECT_EQ(partitioned->size(), 1u);
}

TEST(PartitionedMatcher, FirstSetGroupVariableFindsMoreThanGlobal) {
  // The equality graph is complete, so the detector accepts the pattern.
  // But while p+ is the only bound variable, its self-loop compares p with
  // nothing: the global automaton lets key 2's P extend the run that key
  // 1's P started, and that poisoned run then fails a.ID = p.ID. Per-key
  // execution never sees the foreign P and keeps the match.
  Pattern grouped = MustParse(
      "PATTERN {a, p+} -> {x} WHERE a.L = 'A' AND p.L = 'P' AND x.L = 'X' "
      "AND a.ID = p.ID AND a.ID = x.ID AND p.ID = x.ID WITHIN 10h");
  Result<int> attribute = FindPartitionAttribute(grouped);
  ASSERT_TRUE(attribute.ok()) << attribute.status().ToString();
  EXPECT_EQ(*attribute, 0);  // ID
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, int64_t id) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(id), Value(type), Value(0.0),
                              Value(std::string("u"))});
  };
  add("P", 1, 1);
  add("P", 2, 2);
  add("A", 3, 1);
  add("X", 4, 1);
  Result<std::vector<Match>> global = MatchRelation(grouped, relation);
  ASSERT_TRUE(global.ok());
  EXPECT_TRUE(global->empty());
  Result<std::vector<Match>> partitioned =
      PartitionedMatchRelation(grouped, relation, *attribute);
  ASSERT_TRUE(partitioned.ok());
  ASSERT_EQ(partitioned->size(), 1u);
  EXPECT_EQ((*partitioned)[0].event_ids(),
            (std::vector<EventId>{relation.events()[0].id(),
                                  relation.events()[2].id(),
                                  relation.events()[3].id()}));
}

TEST(PartitionedMatcher, CreateValidatesArguments) {
  Pattern pattern = MustParse("PATTERN {a} WHERE a.L = 'A' WITHIN 10h");
  EXPECT_FALSE(PartitionedMatcher::Create(pattern, -1).ok());
  EXPECT_FALSE(PartitionedMatcher::Create(pattern, 99).ok());
  EXPECT_FALSE(PartitionedMatcher::Create(pattern, 2).ok());  // V: DOUBLE
  EXPECT_TRUE(PartitionedMatcher::Create(pattern, 0).ok());   // ID
  EXPECT_TRUE(PartitionedMatcher::Create(pattern, 1).ok());   // L: STRING
}

TEST(PartitionedMatcher, StreamingStatsTrackPartitionsAndInstances) {
  Pattern pattern = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' AND a.ID = b.ID "
      "WITHIN 10h");
  Result<PartitionedMatcher> matcher =
      PartitionedMatcher::Create(pattern, 0);
  ASSERT_TRUE(matcher.ok());
  EventRelation relation(ChemotherapySchema());
  auto add = [&relation](const std::string& type, int64_t hours, int64_t id) {
    relation.AppendUnchecked(duration::Hours(hours),
                             {Value(id), Value(type), Value(0.0),
                              Value(std::string("u"))});
  };
  add("A", 1, 1);
  add("A", 2, 2);
  add("B", 3, 1);
  add("B", 4, 2);
  std::vector<Match> out;
  for (const Event& e : relation) matcher->Consume(e, &out);
  matcher->Flush(&out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(matcher->stats().partitions_created, 2);
  EXPECT_EQ(matcher->stats().events_seen, 4);
  EXPECT_EQ(matcher->stats().matches_emitted, 2);
  EXPECT_GE(matcher->stats().max_simultaneous_instances, 2);
}

TEST(PartitionedMatcher, SharesOneCompiledAutomatonAcrossPartitions) {
  Pattern pattern = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' AND a.ID = b.ID "
      "WITHIN 10h");
  int64_t before = AutomatonBuilder::builds_started();
  Result<PartitionedMatcher> matcher =
      PartitionedMatcher::Create(pattern, 0);
  ASSERT_TRUE(matcher.ok());
  EventRelation stream = PartitionedStream(/*seed=*/2, /*partitions=*/64,
                                           /*events=*/400);
  std::vector<Match> out;
  for (const Event& e : stream) matcher->Consume(e, &out);
  matcher->Flush(&out);
  EXPECT_GT(matcher->num_partitions(), 32);
  // The exponential powerset construction ran once in Create, not once per
  // partition key.
  EXPECT_EQ(AutomatonBuilder::builds_started() - before, 1);
}

TEST(PartitionedMatcher, ResetAllowsReuseOnASecondRelation) {
  Pattern pattern = MustParse(
      "PATTERN {a} -> {b} WHERE a.L = 'A' AND b.L = 'B' AND a.ID = b.ID "
      "WITHIN 10h");
  Result<PartitionedMatcher> matcher =
      PartitionedMatcher::Create(pattern, 0);
  ASSERT_TRUE(matcher.ok());
  EventRelation stream = PartitionedStream(/*seed=*/4, 5, 200);

  std::vector<Match> first;
  for (const Event& e : stream) matcher->Consume(e, &first);
  matcher->Flush(&first);

  matcher->Reset();
  EXPECT_EQ(matcher->num_partitions(), 0);
  EXPECT_EQ(matcher->stats().events_seen, 0);

  std::vector<Match> second;
  for (const Event& e : stream) matcher->Consume(e, &second);
  matcher->Flush(&second);
  EXPECT_TRUE(SameMatchSet(first, second));
  EXPECT_EQ(matcher->stats().events_seen,
            static_cast<int64_t>(stream.size()));
}

}  // namespace
}  // namespace ses
