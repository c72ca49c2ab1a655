// Exhaustive small-universe cross-validation: for EVERY pattern in a small
// structured family and EVERY event stream over a tiny alphabet, the
// optimized automaton must agree with the clean-room reference matcher,
// and every emitted match must satisfy the Definition 2 invariants. This
// complements the randomized property tests with complete coverage of a
// bounded space (thousands of pattern × stream combinations).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baseline/reference_matcher.h"
#include "core/matcher.h"
#include "query/parser.h"
#include "query/pattern_builder.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::workload::ChemotherapySchema;

/// All patterns over exactly three variables with types drawn from
/// {A, B} (so exclusivity varies), partitioned into 1-3 sets in order,
/// with every quantifier combination (singleton / group / optional; at
/// least one variable required).
std::vector<Pattern> PatternFamily() {
  std::vector<Pattern> patterns;
  const char* types[] = {"A", "B"};
  // Set partitions of (v0, v1, v2) preserving order: sizes (3), (1,2),
  // (2,1), (1,1,1).
  const std::vector<std::vector<int>> partitions = {
      {3}, {1, 2}, {2, 1}, {1, 1, 1}};
  // Quantifier: 0 = singleton, 1 = group, 2 = optional.
  for (const std::vector<int>& sizes : partitions) {
    for (int q0 = 0; q0 < 3; ++q0) {
      for (int q1 = 0; q1 < 3; ++q1) {
        for (int q2 = 0; q2 < 3; ++q2) {
          if (q0 == 2 && q1 == 2 && q2 == 2) continue;  // all optional
          for (int t0 = 0; t0 < 2; ++t0) {
            for (int t1 = 0; t1 < 2; ++t1) {
              for (int t2 = 0; t2 < 2; ++t2) {
                PatternBuilder builder(ChemotherapySchema());
                int quantifiers[] = {q0, q1, q2};
                int type_index[] = {t0, t1, t2};
                int variable = 0;
                for (int size : sizes) {
                  builder.BeginSet();
                  for (int k = 0; k < size; ++k, ++variable) {
                    std::string name = "v";
                    name += std::to_string(variable);
                    switch (quantifiers[variable]) {
                      case 0:
                        builder.Var(name);
                        break;
                      case 1:
                        builder.GroupVar(name);
                        break;
                      default:
                        builder.OptionalVar(name);
                        break;
                    }
                    builder.WhereConst(name, "L", ComparisonOp::kEq,
                                       Value(types[type_index[variable]]));
                  }
                  builder.EndSet();
                }
                builder.Within(duration::Hours(4));
                Result<Pattern> pattern = builder.Build();
                if (pattern.ok()) patterns.push_back(std::move(*pattern));
              }
            }
          }
        }
      }
    }
  }
  return patterns;
}

/// All streams of length `n` over types {A, B, X}, one event per hour.
void ForEachStream(int n, const std::function<void(const EventRelation&)>& fn) {
  const char* types[] = {"A", "B", "X"};
  std::vector<int> digits(static_cast<size_t>(n), 0);
  while (true) {
    EventRelation relation(ChemotherapySchema());
    for (int i = 0; i < n; ++i) {
      relation.AppendUnchecked(
          duration::Hours(i + 1),
          {Value(int64_t{1}), Value(std::string(types[digits[static_cast<size_t>(i)]])),
           Value(0.0), Value(std::string("u"))});
    }
    fn(relation);
    // Next combination.
    int pos = 0;
    while (pos < n && ++digits[static_cast<size_t>(pos)] == 3) {
      digits[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
}

TEST(Exhaustive, AutomatonEqualsReferenceOnAllSmallUniverses) {
  std::vector<Pattern> patterns = PatternFamily();
  ASSERT_GT(patterns.size(), 500u);
  int64_t combinations = 0;
  for (const Pattern& pattern : patterns) {
    ForEachStream(4, [&](const EventRelation& stream) {
      ++combinations;
      Result<std::vector<Match>> automaton = MatchRelation(pattern, stream);
      Result<std::vector<Match>> reference =
          baseline::ReferenceMatch(pattern, stream);
      ASSERT_TRUE(automaton.ok());
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(SameMatchSet(*automaton, *reference))
          << pattern.ToString() << " on stream #" << combinations
          << ": automaton " << automaton->size() << " vs reference "
          << reference->size();
      for (const Match& match : *automaton) {
        ASSERT_TRUE(baseline::CheckMatchInvariants(pattern, match).ok())
            << pattern.ToString();
      }
    });
  }
  // 4^... sanity: every pattern ran against all 3^4 = 81 streams.
  EXPECT_EQ(combinations,
            static_cast<int64_t>(patterns.size()) * 81);
}

TEST(Exhaustive, LongerStreamsForASelectedPatternSubset) {
  // Full length-6 sweep (729 streams) for a handful of structurally
  // distinct patterns, including the trickiest combinations (group +
  // optional across set boundaries).
  std::vector<Pattern> patterns;
  for (const char* query : {
           "PATTERN {a+, o?} -> {b} WHERE a.L = 'A' AND o.L = 'B' AND "
           "b.L = 'B' WITHIN 4h",
           "PATTERN {a} -> {o?} -> {b+} WHERE a.L = 'A' AND o.L = 'A' AND "
           "b.L = 'B' WITHIN 4h",
           "PATTERN {a, b} WHERE a.L = 'A' AND b.L = 'A' WITHIN 3h",
           "PATTERN {a+} -> {b, c?} WHERE a.L = 'A' AND b.L = 'B' AND "
           "c.L = 'A' WITHIN 4h",
       }) {
    Result<Pattern> pattern = ParsePattern(query, ChemotherapySchema());
    ASSERT_TRUE(pattern.ok()) << query;
    patterns.push_back(std::move(*pattern));
  }
  for (const Pattern& pattern : patterns) {
    ForEachStream(6, [&](const EventRelation& stream) {
      Result<std::vector<Match>> automaton = MatchRelation(pattern, stream);
      Result<std::vector<Match>> reference =
          baseline::ReferenceMatch(pattern, stream);
      ASSERT_TRUE(automaton.ok());
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(SameMatchSet(*automaton, *reference)) << pattern.ToString();
    });
  }
}

}  // namespace
}  // namespace ses
