// Tests for the query layer: conditions, pattern validation, the mutual
// exclusivity analysis (Definition 6), and the programmatic builder.

#include <gtest/gtest.h>

#include "query/condition.h"
#include "query/pattern.h"
#include "query/pattern_builder.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

Event MakeEvent(int64_t id_attr, const std::string& type, double v,
                Timestamp t) {
  return Event(1, t,
               {Value(id_attr), Value(type), Value(v),
                Value(std::string("u"))});
}

TEST(Condition, ApplyComparison) {
  EXPECT_TRUE(ApplyComparison(ComparisonOp::kEq, 0));
  EXPECT_FALSE(ApplyComparison(ComparisonOp::kEq, 1));
  EXPECT_TRUE(ApplyComparison(ComparisonOp::kNe, -1));
  EXPECT_TRUE(ApplyComparison(ComparisonOp::kLt, -1));
  EXPECT_TRUE(ApplyComparison(ComparisonOp::kLe, 0));
  EXPECT_FALSE(ApplyComparison(ComparisonOp::kGt, 0));
  EXPECT_TRUE(ApplyComparison(ComparisonOp::kGe, 1));
}

TEST(Condition, MirrorComparison) {
  EXPECT_EQ(MirrorComparison(ComparisonOp::kLt), ComparisonOp::kGt);
  EXPECT_EQ(MirrorComparison(ComparisonOp::kLe), ComparisonOp::kGe);
  EXPECT_EQ(MirrorComparison(ComparisonOp::kEq), ComparisonOp::kEq);
  EXPECT_EQ(MirrorComparison(ComparisonOp::kNe), ComparisonOp::kNe);
}

TEST(Condition, ConstantEvaluation) {
  // v.L = 'C' on attribute index 1 of the chemo schema.
  Condition c(AttributeRef{0, 1}, ComparisonOp::kEq, Value("C"));
  EXPECT_TRUE(c.is_constant_condition());
  EXPECT_TRUE(c.EvaluateConstant(MakeEvent(1, "C", 0, 0)));
  EXPECT_FALSE(c.EvaluateConstant(MakeEvent(1, "B", 0, 0)));
}

TEST(Condition, VariableEvaluation) {
  // v0.ID = v1.ID (attribute 0).
  Condition c(AttributeRef{0, 0}, ComparisonOp::kEq, AttributeRef{1, 0});
  EXPECT_FALSE(c.is_constant_condition());
  EXPECT_TRUE(c.EvaluateVariable(MakeEvent(2, "C", 0, 0),
                                 MakeEvent(2, "D", 0, 5)));
  EXPECT_FALSE(c.EvaluateVariable(MakeEvent(2, "C", 0, 0),
                                  MakeEvent(3, "D", 0, 5)));
}

TEST(Condition, TimestampEvaluation) {
  // v0.T < v1.T.
  Condition c(AttributeRef{0, AttributeRef::kTimestampAttribute},
              ComparisonOp::kLt,
              AttributeRef{1, AttributeRef::kTimestampAttribute});
  EXPECT_TRUE(c.EvaluateVariable(MakeEvent(1, "A", 0, 10),
                                 MakeEvent(1, "B", 0, 20)));
  EXPECT_FALSE(c.EvaluateVariable(MakeEvent(1, "A", 0, 20),
                                  MakeEvent(1, "B", 0, 20)));
}

TEST(Condition, ReferencesAndOtherVariable) {
  Condition c(AttributeRef{3, 0}, ComparisonOp::kEq, AttributeRef{5, 0});
  EXPECT_TRUE(c.References(3));
  EXPECT_TRUE(c.References(5));
  EXPECT_FALSE(c.References(4));
  EXPECT_EQ(*c.OtherVariable(3), 5);
  EXPECT_EQ(*c.OtherVariable(5), 3);
  EXPECT_FALSE(c.OtherVariable(4).has_value());

  const Value one(int64_t{1});
  Condition k(AttributeRef{3, 0}, ComparisonOp::kEq, one);
  EXPECT_TRUE(k.References(3));
  EXPECT_FALSE(k.OtherVariable(3).has_value());
}

// --- PatternBuilder & Pattern validation ---

TEST(PatternBuilder, BuildsTheRunningExample) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("c").GroupVar("p").Var("d").EndSet();
  b.BeginSet().Var("b").EndSet();
  b.WhereConst("c", "L", ComparisonOp::kEq, Value("C"));
  b.WhereConst("d", "L", ComparisonOp::kEq, Value("D"));
  b.WhereConst("p", "L", ComparisonOp::kEq, Value("P"));
  b.WhereConst("b", "L", ComparisonOp::kEq, Value("B"));
  b.WhereVar("c", "ID", ComparisonOp::kEq, "p", "ID");
  b.WhereVar("c", "ID", ComparisonOp::kEq, "d", "ID");
  b.WhereVar("d", "ID", ComparisonOp::kEq, "b", "ID");
  b.Within(duration::Hours(264));
  Result<Pattern> p = b.Build();
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->num_variables(), 4);
  EXPECT_EQ(p->num_sets(), 2);
  EXPECT_TRUE(p->variable(*p->VariableByName("p")).is_group);
  EXPECT_FALSE(p->variable(*p->VariableByName("c")).is_group);
  EXPECT_EQ(p->conditions().size(), 7u);
  EXPECT_EQ(p->ToString(), "(<{c, p+, d}, {b}>, Theta(7), 11d)");
}

TEST(PatternBuilder, ReportsUnknownAttribute) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").EndSet();
  b.WhereConst("a", "NOPE", ComparisonOp::kEq, Value(int64_t{1}));
  b.Within(10);
  EXPECT_FALSE(b.Build().ok());
}

TEST(PatternBuilder, ReportsUnknownVariable) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").EndSet();
  b.WhereConst("zz", "L", ComparisonOp::kEq, Value("A"));
  b.Within(10);
  EXPECT_FALSE(b.Build().ok());
}

TEST(PatternBuilder, ReportsUnbalancedSets) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a");
  b.Within(10);
  EXPECT_FALSE(b.Build().ok());

  PatternBuilder b2(ChemotherapySchema());
  b2.Var("a");  // outside a set
  b2.Within(10);
  EXPECT_FALSE(b2.Build().ok());
}

TEST(Pattern, RejectsInvalidShapes) {
  Schema schema = ChemotherapySchema();
  // Duplicate variable names.
  {
    PatternBuilder b(schema);
    b.BeginSet().Var("a").Var("a").EndSet().Within(10);
    EXPECT_FALSE(b.Build().ok());
  }
  // Empty set via direct construction.
  {
    std::vector<EventVariable> vars = {{"a", false, 0}};
    EXPECT_FALSE(
        Pattern::Create(vars, {{0}, {}}, {}, 10, schema).ok());
  }
  // Non-positive window.
  {
    PatternBuilder b(schema);
    b.BeginSet().Var("a").EndSet().Within(0);
    EXPECT_FALSE(b.Build().ok());
  }
  // Variable in two sets.
  {
    std::vector<EventVariable> vars = {{"a", false, 0}};
    EXPECT_FALSE(Pattern::Create(vars, {{0}, {0}}, {}, 10, schema).ok());
  }
  // Set index inconsistent with membership.
  {
    std::vector<EventVariable> vars = {{"a", false, 1}, {"b", false, 1}};
    EXPECT_FALSE(
        Pattern::Create(vars, {{0}, {1}}, {}, 10, schema).ok());
  }
}

TEST(Pattern, RejectsIncomparableConditionTypes) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").EndSet().Within(10);
  b.WhereConst("a", "ID", ComparisonOp::kEq, Value("text"));
  EXPECT_FALSE(b.Build().ok());

  PatternBuilder b2(ChemotherapySchema());
  b2.BeginSet().Var("a").Var("x").EndSet().Within(10);
  b2.WhereVar("a", "ID", ComparisonOp::kEq, "x", "L");  // int vs string
  EXPECT_FALSE(b2.Build().ok());
}

TEST(Pattern, MasksAndLookups) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").Var("x").EndSet();
  b.BeginSet().Var("y").EndSet();
  b.Within(10);
  Result<Pattern> p = b.Build();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->set_mask(0), 0b011u);
  EXPECT_EQ(p->set_mask(1), 0b100u);
  EXPECT_EQ(p->prefix_mask(0), 0u);
  EXPECT_EQ(p->prefix_mask(1), 0b011u);
  EXPECT_EQ(*p->VariableByName("y"), 2);
  EXPECT_FALSE(p->VariableByName("zz").ok());
}

// --- Mutual exclusivity (Definition 6) ---

Result<Pattern> TwoVarPattern(ComparisonOp op_a, Value value_a,
                              ComparisonOp op_b, Value value_b,
                              const std::string& attr_a = "L",
                              const std::string& attr_b = "L") {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").Var("x").EndSet().Within(10);
  b.WhereConst("a", attr_a, op_a, std::move(value_a));
  b.WhereConst("x", attr_b, op_b, std::move(value_b));
  return b.Build();
}

TEST(MutualExclusivity, DistinctEqualityConstantsExclude) {
  Result<Pattern> p = TwoVarPattern(ComparisonOp::kEq, Value("C"),
                                    ComparisonOp::kEq, Value("D"));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->AreMutuallyExclusive(0, 1));
  EXPECT_TRUE(p->ArePairwiseMutuallyExclusive());
}

TEST(MutualExclusivity, SameEqualityConstantDoesNotExclude) {
  Result<Pattern> p = TwoVarPattern(ComparisonOp::kEq, Value("P"),
                                    ComparisonOp::kEq, Value("P"));
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->AreMutuallyExclusive(0, 1));
  EXPECT_FALSE(p->ArePairwiseMutuallyExclusive());
}

TEST(MutualExclusivity, DisjointRangesExclude) {
  Result<Pattern> p =
      TwoVarPattern(ComparisonOp::kLt, Value(10.0), ComparisonOp::kGt,
                    Value(20.0), "V", "V");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, OverlappingRangesDoNotExclude) {
  Result<Pattern> p =
      TwoVarPattern(ComparisonOp::kLt, Value(20.0), ComparisonOp::kGt,
                    Value(10.0), "V", "V");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, TouchingStrictRangesExclude) {
  // a.V < 10 and x.V >= 10 cannot hold for the same event.
  Result<Pattern> p =
      TwoVarPattern(ComparisonOp::kLt, Value(10.0), ComparisonOp::kGe,
                    Value(10.0), "V", "V");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, EqualityVersusInequalityExcludes) {
  Result<Pattern> p = TwoVarPattern(ComparisonOp::kEq, Value("C"),
                                    ComparisonOp::kNe, Value("C"));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, DifferentAttributesNeverExclude) {
  // a.L = 'C' and x.ID = 1 can both hold for one event.
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").Var("x").EndSet().Within(10);
  b.WhereConst("a", "L", ComparisonOp::kEq, Value("C"));
  b.WhereConst("x", "ID", ComparisonOp::kEq, Value(int64_t{1}));
  Result<Pattern> p = b.Build();
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, VariableConditionsDoNotCount) {
  // Definition 6 only considers constant conditions.
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("a").Var("x").EndSet().Within(10);
  b.WhereVar("a", "V", ComparisonOp::kLt, "x", "V");
  Result<Pattern> p = b.Build();
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->AreMutuallyExclusive(0, 1));
}

TEST(MutualExclusivity, SelfIsNeverExclusive) {
  Result<Pattern> p = TwoVarPattern(ComparisonOp::kEq, Value("C"),
                                    ComparisonOp::kEq, Value("D"));
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->AreMutuallyExclusive(0, 0));
}

TEST(Pattern, GroupVariableHelpers) {
  PatternBuilder b(ChemotherapySchema());
  b.BeginSet().Var("c").GroupVar("p").Var("d").EndSet();
  b.BeginSet().GroupVar("q").EndSet();
  b.Within(10);
  Result<Pattern> p = b.Build();
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->HasGroupVariables());
  EXPECT_EQ(p->NumGroupVariablesInSet(0), 1);
  EXPECT_EQ(p->NumGroupVariablesInSet(1), 1);
}

TEST(Pattern, TooManyVariablesRejected) {
  std::vector<EventVariable> vars;
  std::vector<VariableId> set;
  for (int i = 0; i < 64; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    vars.push_back({name, false, 0});
    set.push_back(i);
  }
  EXPECT_FALSE(
      Pattern::Create(vars, {set}, {}, 10, ChemotherapySchema()).ok());
}

/// Σ 2^|Vi| over event sets of the given sizes is the automaton's state
/// count (§4); the pattern is checked from that shape alone.
Result<Pattern> PatternWithSetSizes(const std::vector<int>& sizes) {
  std::vector<EventVariable> vars;
  std::vector<Pattern::EventSet> sets;
  for (size_t s = 0; s < sizes.size(); ++s) {
    sets.emplace_back();
    for (int i = 0; i < sizes[s]; ++i) {
      const VariableId id = static_cast<VariableId>(vars.size());
      std::string name = "v";
      name += std::to_string(id);
      vars.push_back({name, false, false, static_cast<int>(s)});
      sets.back().push_back(id);
    }
  }
  return Pattern::Create(vars, sets, {}, 10, ChemotherapySchema());
}

TEST(Pattern, AutomatonStateLimit) {
  // Largest accepted: 2^15 + 2^15 = 65 536 states, exactly the limit.
  EXPECT_TRUE(PatternWithSetSizes({15, 15}).ok());
  EXPECT_TRUE(PatternWithSetSizes({15, 1}).ok());
  // Smallest refused: every set adds an even count, so the next is 65 538.
  Result<Pattern> refused = PatternWithSetSizes({15, 15, 1});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("65538 states"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("limit of 65536"),
            std::string::npos)
      << refused.status().ToString();
  // One wide set: 2^16 + 2 states.
  EXPECT_FALSE(PatternWithSetSizes({16, 1}).ok());
  EXPECT_EQ(kMaxAutomatonStates, 65536);
}

}  // namespace
}  // namespace ses
