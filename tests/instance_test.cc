// Unit tests for MatchBuffer (the persistent match-buffer list) and Match.

#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/match.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

Event MakeEvent(EventId id, Timestamp ts) {
  return Event(id, ts, {Value(int64_t{1}), Value("A"), Value(0.0),
                        Value(std::string("u"))})
      .Shared();
}

TEST(MatchBuffer, EmptyBuffer) {
  MatchBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0);
  EXPECT_TRUE(buffer.ToBindings().empty());
}

TEST(MatchBuffer, ExtendIsPersistent) {
  MatchBuffer empty;
  MatchBuffer one = empty.Extend(0, MakeEvent(1, 100));
  MatchBuffer two = one.Extend(1, MakeEvent(2, 200));
  // The original buffers are untouched (persistent structure).
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(two.size(), 2);
  // Branching: extending `one` twice shares the common prefix.
  MatchBuffer branch = one.Extend(2, MakeEvent(3, 300));
  EXPECT_EQ(branch.size(), 2);
  EXPECT_EQ(two.ToBindings()[0].event.id(), 1);
  EXPECT_EQ(branch.ToBindings()[0].event.id(), 1);
  EXPECT_EQ(two.ToBindings()[1].event.id(), 2);
  EXPECT_EQ(branch.ToBindings()[1].event.id(), 3);
}

TEST(MatchBuffer, MinTimestampIsFirstBinding) {
  MatchBuffer buffer;
  buffer = buffer.Extend(0, MakeEvent(1, 100));
  EXPECT_EQ(buffer.min_timestamp(), 100);
  buffer = buffer.Extend(1, MakeEvent(2, 250));
  EXPECT_EQ(buffer.min_timestamp(), 100);
}

TEST(MatchBuffer, ToBindingsIsChronological) {
  MatchBuffer buffer;
  buffer = buffer.Extend(2, MakeEvent(1, 10));
  buffer = buffer.Extend(0, MakeEvent(2, 20));
  buffer = buffer.Extend(2, MakeEvent(3, 30));
  std::vector<Binding> bindings = buffer.ToBindings();
  ASSERT_EQ(bindings.size(), 3u);
  EXPECT_EQ(bindings[0].event.id(), 1);
  EXPECT_EQ(bindings[1].event.id(), 2);
  EXPECT_EQ(bindings[2].event.id(), 3);
  EXPECT_EQ(bindings[0].variable, 2);
  EXPECT_EQ(bindings[1].variable, 0);
}

TEST(MatchBuffer, ExtendKeepsTheValuesOfASharedEvent) {
  const Event event = MakeEvent(1, 10);
  MatchBuffer one = MatchBuffer().Extend(0, event);
  MatchBuffer two = one.Extend(1, event);
  std::vector<const std::vector<Value>*> seen;
  two.ForEach([&](VariableId, const Event& e) { seen.push_back(&e.values()); });
  EXPECT_EQ(seen, (std::vector<const std::vector<Value>*>{&event.values(),
                                                          &event.values()}));
  EXPECT_EQ(&two.ToBindings()[0].event.values(), &event.values());
}

TEST(MatchBuffer, ForEachVisitsNewestFirst) {
  MatchBuffer buffer;
  buffer = buffer.Extend(0, MakeEvent(1, 10));
  buffer = buffer.Extend(1, MakeEvent(2, 20));
  std::vector<EventId> seen;
  buffer.ForEach([&](VariableId, const Event& e) { seen.push_back(e.id()); });
  EXPECT_EQ(seen, (std::vector<EventId>{2, 1}));
}

TEST(Match, AccessorsAndKey) {
  Event e1(1, 100, {Value(int64_t{1}), Value("A"), Value(0.0),
                    Value(std::string("u"))});
  Event e2(2, 300, {Value(int64_t{1}), Value("B"), Value(0.0),
                    Value(std::string("u"))});
  Match match({Binding{0, e1}, Binding{1, e2}});
  EXPECT_EQ(match.size(), 2u);
  EXPECT_EQ(match.start_time(), 100);
  EXPECT_EQ(match.end_time(), 300);
  EXPECT_EQ(match.event_ids(), (std::vector<EventId>{1, 2}));
  EXPECT_EQ(match.EventsFor(0).size(), 1u);
  EXPECT_EQ(match.EventsFor(7).size(), 0u);
  auto key = match.SubstitutionKey();
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], std::make_pair(VariableId{0}, EventId{1}));
}

TEST(Match, SortAndCompareSets) {
  Event e1(1, 100, {Value(int64_t{1}), Value("A"), Value(0.0),
                    Value(std::string("u"))});
  Event e2(2, 200, {Value(int64_t{1}), Value("B"), Value(0.0),
                    Value(std::string("u"))});
  Match early({Binding{0, e1}});
  Match late({Binding{0, e2}});
  std::vector<Match> a = {late, early};
  SortMatches(&a);
  EXPECT_EQ(a[0].start_time(), 100);
  std::vector<Match> b = {early, late};
  EXPECT_TRUE(SameMatchSet(a, b));
  std::vector<Match> c = {early};
  EXPECT_FALSE(SameMatchSet(a, c));
  // Same ids, different variable: different substitution.
  Match other_var({Binding{1, e1}});
  EXPECT_FALSE(SameMatchSet({early}, {other_var}));
}

TEST(Match, ToStringUsesPatternNames) {
  Result<Pattern> pattern = workload::PaperQ1Pattern();
  ASSERT_TRUE(pattern.ok());
  EventRelation events = workload::PaperEventRelation();
  Match match({Binding{*pattern->VariableByName("c"), events.event(0)},
               Binding{*pattern->VariableByName("p"), events.event(3)}});
  EXPECT_EQ(match.ToString(*pattern), "{c/e1, p+/e4}");
}

}  // namespace
}  // namespace ses
