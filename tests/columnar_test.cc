// Columnar ingest tests: (1) ColumnarBatch is a loss-free transpose —
// ToEvents(FromEvents(R)) is the identity over fuzzed relations, empty
// batches, duplicate-heavy string dictionaries, and default-id events;
// (2) the vectorized §4.5 pre-filter bitmap agrees bit-for-bit with the
// scalar EventPreFilter; (3) the differential grid of ISSUE acceptance:
// every engine × thread count × rebalancer × lateness shuffle × a 10-plan
// catalog produces a byte-identical match set through PushColumnar as
// through the row-wise PushBatch, with equal observable counters
// (docs/SEMANTICS.md §11).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "core/filter.h"
#include "engine/registry.h"
#include "event/columnar.h"
#include "event/csv.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "query/pattern_builder.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::catalog::CatalogEngine;
using ::ses::catalog::CatalogOptions;
using ::ses::catalog::PlanStats;
using ::ses::catalog::QueryCatalog;
using ::ses::engine::CollectInto;
using ::ses::engine::CreateEngine;
using ::ses::engine::Engine;
using ::ses::engine::EngineOptions;
using ::ses::engine::EngineStats;
using ::ses::plan::CompiledPlan;
using ::ses::plan::CompilePlan;
using ::ses::plan::PlanOptions;
using ::ses::workload::ChemotherapySchema;

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

/// Complete equality graph on ID: accepted by every engine.
Pattern CompletePattern(const std::string& window = "5h") {
  return MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN " + window);
}

EventRelation KeyedStream(uint64_t seed, int partitions, int64_t events,
                          double skew = 0.0) {
  workload::StreamOptions options;
  options.num_events = events;
  options.num_partitions = partitions;
  options.key_skew = skew;
  options.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
  options.min_gap = duration::Minutes(1);
  options.max_gap = duration::Minutes(10);
  options.seed = seed;
  return workload::GenerateStream(options);
}

/// Byte-identity surrogate: canonical order, (start, end, substitution).
using Signature =
    std::vector<std::tuple<Timestamp, Timestamp,
                           std::vector<std::pair<VariableId, EventId>>>>;

Signature SignatureOf(std::vector<Match> matches) {
  SortMatches(&matches);
  Signature signature;
  signature.reserve(matches.size());
  for (const Match& match : matches) {
    signature.emplace_back(match.start_time(), match.end_time(),
                           match.SubstitutionKey());
  }
  return signature;
}

void ExpectEventsEqual(const Event& a, const Event& b, size_t row) {
  EXPECT_EQ(a.id(), b.id()) << "row " << row;
  EXPECT_EQ(a.timestamp(), b.timestamp()) << "row " << row;
  ASSERT_EQ(a.num_values(), b.num_values()) << "row " << row;
  for (int i = 0; i < a.num_values(); ++i) {
    EXPECT_EQ(a.value(i).type(), b.value(i).type())
        << "row " << row << " attr " << i;
    EXPECT_EQ(a.value(i), b.value(i)) << "row " << row << " attr " << i;
  }
}

TEST(ColumnarRoundTrip, FuzzedRelationsAreIdentity) {
  // ChemotherapySchema covers all three column kinds: ID INT64, L/U
  // STRING (dictionary), V DOUBLE.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EventRelation relation = KeyedStream(seed, 8, 500, seed % 2 ? 0.9 : 0.0);
    ColumnarBatch batch = ColumnarBatch::FromEvents(
        relation.schema(), std::span<const Event>(relation.events()));
    ASSERT_EQ(batch.size(), relation.size());
    std::vector<Event> back = batch.ToEvents();
    ASSERT_EQ(back.size(), relation.size());
    for (size_t i = 0; i < back.size(); ++i) {
      ExpectEventsEqual(back[i], relation.event(i), i);
    }
    // The type column repeats 4 values over 500 rows: the dictionary must
    // stay at the distinct count, not the row count.
    EXPECT_LE(batch.string_column(1).dict.size(), 4u);
  }
}

TEST(ColumnarRoundTrip, EmptyBatch) {
  ColumnarBatch batch(ChemotherapySchema());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.ToEvents().empty());
  ColumnarBatch from = ColumnarBatch::FromEvents(ChemotherapySchema(), {});
  EXPECT_TRUE(from.empty());
}

TEST(ColumnarRoundTrip, DefaultIdAndDuplicateStringsSurvive) {
  // Events with the kInvalidEventId default id (pre-assignment, as the CSV
  // decoder holds them) and heavy duplicate strings round-trip exactly.
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.emplace_back(
        kInvalidEventId, Timestamp{i + 1},
        std::vector<Value>{Value(int64_t{i % 2}), Value(i % 2 ? "dup" : ""),
                           Value(0.5 * i), Value("mg")});
  }
  ColumnarBatch batch = ColumnarBatch::FromEvents(
      ChemotherapySchema(), std::span<const Event>(events));
  // 10 rows but only two distinct L values ("" counts) and one U value.
  EXPECT_EQ(batch.string_column(1).dict.size(), 2u);
  EXPECT_EQ(batch.string_column(3).dict.size(), 1u);
  std::vector<Event> back = batch.ToEvents();
  ASSERT_EQ(back.size(), events.size());
  for (size_t i = 0; i < back.size(); ++i) {
    ExpectEventsEqual(back[i], events[i], i);
  }
}

TEST(ColumnarRoundTrip, SliceEqualsRowRange) {
  EventRelation relation = KeyedStream(9, 6, 300);
  ColumnarBatch batch = ColumnarBatch::FromEvents(
      relation.schema(), std::span<const Event>(relation.events()));
  ColumnarBatch slice = batch.Slice(100, 50);
  ASSERT_EQ(slice.size(), 50u);
  std::vector<Event> rows = slice.ToEvents();
  for (size_t i = 0; i < rows.size(); ++i) {
    ExpectEventsEqual(rows[i], relation.event(100 + i), i);
  }
  // The rebuilt dictionary holds only values the slice uses.
  EXPECT_LE(slice.string_column(1).dict.size(), 4u);
}

/// Pattern with constant conditions on every column kind: INT64 (ID),
/// STRING (L), DOUBLE (V, via PatternBuilder — the text parser has no
/// float literals), exercising Eq and ordered operators.
Pattern MixedTypeFilterPattern() {
  PatternBuilder builder(ChemotherapySchema());
  builder.BeginSet().Var("a").EndSet();
  builder.BeginSet().Var("x").EndSet();
  builder.WhereConst("a", "L", ComparisonOp::kEq, Value("A"));
  builder.WhereConst("a", "ID", ComparisonOp::kLe, Value(int64_t{4}));
  builder.WhereConst("x", "V", ComparisonOp::kGt, Value(55.0));
  builder.WhereConst("x", "L", ComparisonOp::kNe, Value("N"));
  builder.Within(duration::Hours(2));
  Result<Pattern> pattern = builder.Build();
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

TEST(VectorizedFilter, BitmapMatchesScalarShouldProcess) {
  Pattern pattern = MixedTypeFilterPattern();
  EventPreFilter scalar(pattern);
  VectorizedPreFilter vectorized(pattern);
  ASSERT_TRUE(scalar.active());
  ASSERT_TRUE(vectorized.active());
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EventRelation stream = KeyedStream(seed, 8, 777);
    ColumnarBatch batch = ColumnarBatch::FromEvents(
        stream.schema(), std::span<const Event>(stream.events()));
    std::vector<uint64_t> pass;
    vectorized.EvaluateAny(batch, &pass);
    ASSERT_EQ(pass.size(), (batch.size() + 63) / 64);
    for (size_t row = 0; row < batch.size(); ++row) {
      const bool bit = ((pass[row >> 6] >> (row & 63)) & 1) != 0;
      EXPECT_EQ(bit, scalar.ShouldProcess(stream.event(row)))
          << "seed " << seed << " row " << row;
    }
    // Tail bits beyond size() stay zero (engines popcount whole words).
    if (batch.size() % 64 != 0) {
      EXPECT_EQ(pass.back() >> (batch.size() % 64), 0u);
    }
  }
}

TEST(VectorizedFilter, InactiveFilterPassesEveryRow) {
  // x carries no constant condition, so §4.5 must deactivate — the bitmap
  // is all ones over the batch.
  Pattern pattern = MustParse(
      "PATTERN {a} -> {x} WHERE a.L = 'A' AND a.ID = x.ID WITHIN 2h");
  VectorizedPreFilter vectorized(pattern);
  EXPECT_FALSE(vectorized.active());
  EventRelation stream = KeyedStream(3, 4, 100);
  ColumnarBatch batch = ColumnarBatch::FromEvents(
      stream.schema(), std::span<const Event>(stream.events()));
  std::vector<uint64_t> pass;
  vectorized.EvaluateAny(batch, &pass);
  for (size_t row = 0; row < batch.size(); ++row) {
    EXPECT_NE((pass[row >> 6] >> (row & 63)) & 1, 0u) << "row " << row;
  }
}

/// Runs `engine_name` over `events` through the row path (PushBatch) or
/// the columnar path (PushColumnar in `batch_rows` slices) and returns
/// the signature; captures stats when asked.
Signature RunPath(const std::string& engine_name,
                  std::shared_ptr<const CompiledPlan> plan,
                  std::span<const Event> events, bool columnar,
                  EngineOptions options = {}, size_t batch_rows = 256,
                  EngineStats* stats = nullptr) {
  std::vector<Match> matches;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine(engine_name, std::move(plan), std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return {};
  Status status = Status::OK();
  if (columnar) {
    const Schema& schema = ChemotherapySchema();
    ColumnarBatch batch = ColumnarBatch::FromEvents(schema, events);
    for (size_t begin = 0; status.ok() && begin < batch.size();
         begin += batch_rows) {
      const size_t count = std::min(batch_rows, batch.size() - begin);
      status = (*engine)->PushColumnar(batch.Slice(begin, count));
    }
  } else {
    status = (*engine)->PushBatch(events);
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = (*engine)->Flush();
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (stats != nullptr) *stats = (*engine)->stats();
  return SignatureOf(std::move(matches));
}

TEST(ColumnarDifferential, GridOverEnginesThreadsAndRebalancer) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(21, 24, 1500, 0.8);
  std::span<const Event> events(stream.events());
  Signature expected = RunPath("serial", *plan, events, /*columnar=*/false);
  ASSERT_FALSE(expected.empty());

  for (const std::string& name :
       {std::string("serial"), std::string("partitioned"),
        std::string("parallel")}) {
    for (int threads : {1, 2, 4, 8}) {
      for (bool rebalance : {false, true}) {
        // The rebalancer is a parallel-engine knob; other engines ignore
        // it, so run that axis once.
        if (rebalance && name != "parallel") continue;
        EngineOptions options;
        options.num_shards = threads;
        options.batch_size = 64;
        if (rebalance) {
          options.rebalance.enabled = true;
          options.rebalance.interval_events = 128;
          options.rebalance.hi_imbalance = 1.2;
          options.rebalance.lo_imbalance = 1.05;
        }
        EngineStats row_stats;
        EngineStats col_stats;
        Signature row = RunPath(name, *plan, events, false, options, 256,
                                &row_stats);
        Signature col = RunPath(name, *plan, events, true, options, 256,
                                &col_stats);
        EXPECT_EQ(row, expected)
            << name << " row path, threads " << threads;
        EXPECT_EQ(col, expected)
            << name << " columnar path, threads " << threads
            << " rebalance " << rebalance;
        // Observable counters agree: the bitmap drop is charged to the
        // same events_filtered the row-wise filter reports.
        EXPECT_EQ(col_stats.events_pushed, row_stats.events_pushed) << name;
        EXPECT_EQ(col_stats.events_filtered, row_stats.events_filtered)
            << name << " threads " << threads << " rebalance " << rebalance;
        EXPECT_EQ(col_stats.matches_emitted, row_stats.matches_emitted)
            << name;
      }
    }
  }
}

TEST(ColumnarDifferential, LatenessShuffleFallsBackToRowSemantics) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(31, 16, 1200);
  Signature expected = RunPath("serial", *plan,
                               std::span<const Event>(stream.events()),
                               /*columnar=*/false);
  const Duration bound = duration::Minutes(30);
  std::vector<Event> shuffled =
      workload::ShuffleWithinBound(stream.events(), bound, 997);
  for (const std::string& name :
       {std::string("serial"), std::string("partitioned"),
        std::string("parallel")}) {
    EngineOptions options;
    options.lateness_bound = bound;
    options.num_shards = 4;
    options.batch_size = 64;
    EngineStats row_stats;
    EngineStats col_stats;
    Signature row = RunPath(name, *plan, shuffled, false, options, 128,
                            &row_stats);
    Signature col = RunPath(name, *plan, shuffled, true, options, 128,
                            &col_stats);
    EXPECT_EQ(row, expected) << name << " row path on shuffled stream";
    EXPECT_EQ(col, expected) << name << " columnar path on shuffled stream";
    EXPECT_EQ(col_stats.events_reordered, row_stats.events_reordered)
        << name;
    EXPECT_EQ(col_stats.events_filtered, row_stats.events_filtered) << name;
  }
}

/// The overlapping plan family of tests/catalog_test.cc: plan i watches
/// types T[i % k] -> T[(i + 1) % k] joined on ID.
std::shared_ptr<const CompiledPlan> FamilyPlan(
    int i, const std::vector<std::string>& types) {
  const std::string& first = types[i % types.size()];
  const std::string& second = types[(i + 1) % types.size()];
  Result<Pattern> pattern =
      ParsePattern("PATTERN {a} -> {x} WHERE a.L = '" + first +
                       "' AND x.L = '" + second +
                       "' AND a.ID = x.ID WITHIN 3h",
                   ChemotherapySchema());
  EXPECT_TRUE(pattern.ok());
  Result<std::shared_ptr<const CompiledPlan>> plan = CompilePlan(*pattern);
  EXPECT_TRUE(plan.ok());
  return *plan;
}

TEST(ColumnarDifferential, TenPlanCatalogMatchesRowPath) {
  const std::vector<std::string> types = {"A", "B", "C", "D", "E"};
  workload::StreamOptions stream_options;
  stream_options.num_events = 2000;
  stream_options.num_partitions = 16;
  stream_options.min_gap = duration::Minutes(1);
  stream_options.max_gap = duration::Minutes(10);
  stream_options.seed = 17;
  stream_options.type_weights.clear();
  for (const std::string& type : types) {
    stream_options.type_weights.push_back({type, 1.0});
  }
  EventRelation stream = workload::GenerateStream(stream_options);

  auto catalog = std::make_shared<QueryCatalog>();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        catalog->Add("plan-" + std::to_string(i), FamilyPlan(i, types)).ok());
  }

  auto run = [&](bool columnar, bool shared_work)
      -> std::pair<std::map<std::string, Signature>,
                   std::vector<PlanStats>> {
    CatalogOptions options;
    options.shared_type_index = shared_work;
    options.shared_prefilter = shared_work;
    std::map<std::string, std::vector<Match>> by_plan;
    options.sink = [&by_plan](std::string_view id, Match&& match) {
      by_plan[std::string(id)].push_back(std::move(match));
    };
    Result<std::unique_ptr<CatalogEngine>> engine =
        CatalogEngine::Create(catalog, std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    Status status = Status::OK();
    if (columnar) {
      ColumnarBatch batch = ColumnarBatch::FromEvents(
          stream.schema(), std::span<const Event>(stream.events()));
      for (size_t begin = 0; status.ok() && begin < batch.size();
           begin += 512) {
        const size_t count = std::min<size_t>(512, batch.size() - begin);
        status = (*engine)->PushColumnar(batch.Slice(begin, count));
      }
    } else {
      status =
          (*engine)->PushBatch(std::span<const Event>(stream.events()));
    }
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE((*engine)->Flush().ok());
    std::map<std::string, Signature> signatures;
    for (auto& [id, matches] : by_plan) {
      signatures.emplace(id, SignatureOf(std::move(matches)));
    }
    return {std::move(signatures), (*engine)->plan_stats()};
  };

  for (bool shared_work : {true, false}) {
    auto [row_signatures, row_stats] = run(false, shared_work);
    auto [col_signatures, col_stats] = run(true, shared_work);
    EXPECT_EQ(col_signatures, row_signatures)
        << "shared_work " << shared_work;
    ASSERT_EQ(col_stats.size(), row_stats.size());
    for (size_t i = 0; i < row_stats.size(); ++i) {
      EXPECT_EQ(col_stats[i].events_considered,
                row_stats[i].events_considered)
          << row_stats[i].id << " shared_work " << shared_work;
      EXPECT_EQ(col_stats[i].events_skipped_by_prefilter,
                row_stats[i].events_skipped_by_prefilter)
          << row_stats[i].id << " shared_work " << shared_work;
      EXPECT_EQ(col_stats[i].events_skipped_by_index,
                row_stats[i].events_skipped_by_index)
          << row_stats[i].id << " shared_work " << shared_work;
    }
  }
}

TEST(ColumnarIngest, CsvDecodeFeedsEnginesIdentically) {
  // End-to-end over the CSV surface: WriteCsvString -> columnar decode ->
  // PushColumnar equals the row-wise read -> PushBatch.
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompilePlan(CompletePattern());
  ASSERT_TRUE(plan.ok());
  EventRelation stream = KeyedStream(41, 8, 600);
  std::string csv = WriteCsvString(stream);

  Result<EventRelation> rows = ReadCsvString(csv, stream.schema());
  ASSERT_TRUE(rows.ok());
  Signature expected = RunPath("serial", *plan,
                               std::span<const Event>(rows->events()),
                               /*columnar=*/false);

  Result<ColumnarBatch> batch = ReadCsvStringColumnar(csv, stream.schema());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<Match> matches;
  EngineOptions options;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("serial", *plan, std::move(options));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->PushColumnar(*batch).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ(SignatureOf(std::move(matches)), expected);
}

}  // namespace
}  // namespace ses
