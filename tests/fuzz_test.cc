// Fuzz-style robustness tests: random and systematically corrupted inputs
// must produce clean Status errors (or correct results), never crashes or
// silent corruption.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/random.h"
#include "engine/registry.h"
#include "event/csv.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "query/unparse.h"
#include "storage/table_reader.h"
#include "storage/table_writer.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

namespace fs = std::filesystem;
using ::ses::workload::ChemotherapySchema;

TEST(ParserFuzz, RandomBytesNeverCrash) {
  Random random(31337);
  Schema schema = ChemotherapySchema();
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    size_t length = random.Uniform(120);
    for (size_t i = 0; i < length; ++i) {
      input += static_cast<char>(random.Uniform(128));
    }
    // Must not crash; almost always an error, occasionally valid by luck.
    Result<Pattern> result = ParsePattern(input, schema);
    (void)result.ok();
  }
}

TEST(ParserFuzz, TokenSoupNeverCrashes) {
  // Recombine valid DSL tokens randomly: exercises the parser's error
  // paths far more deeply than raw bytes (which die in the lexer).
  const char* kTokens[] = {"PATTERN", "WHERE",  "WITHIN", "AND", "{",  "}",
                           ",",       "->",     ";",      ".",   "+",  "=",
                           "!=",      "<",      "<=",     ">",   ">=", "a",
                           "b",       "c",      "ID",     "L",   "V",  "T",
                           "'C'",     "264",    "3.5",    "264h"};
  Random random(4242);
  Schema schema = ChemotherapySchema();
  for (int trial = 0; trial < 2000; ++trial) {
    std::string input;
    size_t length = random.Uniform(30);
    for (size_t i = 0; i < length; ++i) {
      input += kTokens[random.Uniform(std::size(kTokens))];
      input += " ";
    }
    Result<Pattern> result = ParsePattern(input, schema);
    (void)result.ok();
  }
}

TEST(ParserFuzz, ValidPatternsSurviveUnparseRoundTrip) {
  // Parse -> unparse -> parse must be a fixed point.
  const char* kQueries[] = {
      "PATTERN {a} WITHIN 90s",
      "PATTERN {c, p+, d} -> {b} WHERE c.L = 'C' AND d.L = 'D' AND "
      "p.L = 'P' AND b.L = 'B' AND c.ID = p.ID AND c.ID = d.ID AND "
      "d.ID = b.ID WITHIN 264h",
      "PATTERN {a, b} -> {x+} -> {y} WHERE a.V >= 10.5 AND b.V != 3 AND "
      "x.T < 100000 AND a.ID = b.ID WITHIN 2d",
      "PATTERN {q+} WHERE q.U = 'it''s' AND q.V < -2.5 WITHIN 5m",
  };
  Schema schema = ChemotherapySchema();
  for (const char* query : kQueries) {
    Result<Pattern> first = ParsePattern(query, schema);
    ASSERT_TRUE(first.ok()) << query << ": " << first.status().ToString();
    std::string unparsed = UnparsePattern(*first);
    Result<Pattern> second = ParsePattern(unparsed, schema);
    ASSERT_TRUE(second.ok()) << unparsed << ": "
                             << second.status().ToString();
    EXPECT_EQ(UnparsePattern(*second), unparsed);
    // Structural identity.
    EXPECT_EQ(second->num_variables(), first->num_variables());
    EXPECT_EQ(second->num_sets(), first->num_sets());
    EXPECT_EQ(second->conditions().size(), first->conditions().size());
    EXPECT_EQ(second->window(), first->window());
    EXPECT_EQ(second->ToString(), first->ToString());
  }
}

TEST(EngineFuzz, RandomizedRebalanceConfigsPreserveTheMatchSet) {
  // Randomized differential grid over the parallel engine with the
  // adaptive rebalancer on: stream shape, shard count, batch size,
  // sampling cadence, and every cost-model knob are drawn at random, and
  // the normalized match set must equal the serial engine's every time.
  // Migration decisions depend on thread timing, so each trial also
  // probes a different interleaving.
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN 5h",
      ChemotherapySchema());
  ASSERT_TRUE(pattern.ok());
  Result<std::shared_ptr<const plan::CompiledPlan>> compiled =
      plan::CompilePlan(*pattern);
  ASSERT_TRUE(compiled.ok());

  auto run = [&](const char* name, engine::EngineOptions options,
                 const EventRelation& stream) {
    std::vector<Match> matches;
    options.sink = engine::CollectInto(&matches);
    Result<std::unique_ptr<engine::Engine>> eng =
        engine::CreateEngine(name, *compiled, std::move(options));
    EXPECT_TRUE(eng.ok()) << eng.status().ToString();
    EXPECT_TRUE(
        (*eng)->PushBatch(std::span<const Event>(stream.events())).ok());
    EXPECT_TRUE((*eng)->Flush().ok());
    SortMatches(&matches);
    std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
    for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
    return keys;
  };

  Random random(2026);
  const double kSkews[] = {0.0, 0.8, 1.2};
  for (int trial = 0; trial < 12; ++trial) {
    workload::StreamOptions so;
    so.num_events = 600 + random.UniformInt(0, 600);
    so.num_partitions = static_cast<int>(8 << random.UniformInt(0, 2));
    so.key_skew = kSkews[random.Index(3)];
    so.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
    so.min_gap = duration::Minutes(1);
    so.max_gap = duration::Minutes(10);
    so.seed = random.Next();
    EventRelation stream = workload::GenerateStream(so);
    auto expected = run("serial", {}, stream);

    engine::EngineOptions options;
    options.num_shards = static_cast<int>(random.UniformInt(2, 8));
    options.batch_size = static_cast<int>(int64_t{1} << random.UniformInt(3, 7));
    options.rebalance.enabled = true;
    options.rebalance.interval_events = 32 << random.UniformInt(0, 3);
    options.rebalance.hi_imbalance = 1.05 + random.UniformDouble() * 0.6;
    options.rebalance.lo_imbalance =
        1.0 + random.UniformDouble() * (options.rebalance.hi_imbalance - 1.0);
    options.rebalance.hot_key_fraction = 0.3 + random.UniformDouble() * 0.6;
    options.rebalance.move_cost = random.UniformDouble();
    options.rebalance.table_cost = random.UniformDouble();
    options.rebalance.warmup_weight = random.UniformDouble();
    EXPECT_EQ(run("parallel", options, stream), expected)
        << "trial " << trial << " shards " << options.num_shards << " skew "
        << so.key_skew;
  }
}

TEST(EngineFuzz, RandomizedWithinBoundShufflesPreserveTheMatchSet) {
  // Randomized differential grid over the bounded-lateness reorder stage:
  // stream shape, lateness bound, engine, shard count, and rebalancer
  // on/off are drawn at random; the stream is shuffled within the bound
  // (jittered arrival) and the normalized match set must equal in-order
  // serial evaluation every time.
  Result<Pattern> pattern = ParsePattern(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN 5h",
      ChemotherapySchema());
  ASSERT_TRUE(pattern.ok());
  Result<std::shared_ptr<const plan::CompiledPlan>> compiled =
      plan::CompilePlan(*pattern);
  ASSERT_TRUE(compiled.ok());

  auto run = [&](const char* name, engine::EngineOptions options,
                 std::span<const Event> stream) {
    std::vector<Match> matches;
    options.sink = engine::CollectInto(&matches);
    Result<std::unique_ptr<engine::Engine>> eng =
        engine::CreateEngine(name, *compiled, std::move(options));
    EXPECT_TRUE(eng.ok()) << eng.status().ToString();
    EXPECT_TRUE((*eng)->PushBatch(stream).ok());
    EXPECT_TRUE((*eng)->Flush().ok());
    SortMatches(&matches);
    std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
    for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
    return keys;
  };

  const char* kEngines[] = {"serial", "partitioned", "parallel"};
  Random random(8086);
  for (int trial = 0; trial < 16; ++trial) {
    workload::StreamOptions so;
    so.num_events = 300 + random.UniformInt(0, 300);
    so.num_partitions = static_cast<int>(4 << random.UniformInt(0, 2));
    so.type_weights = {{"A", 1}, {"B", 1}, {"X", 1}, {"N", 1}};
    so.min_gap = duration::Minutes(1);
    so.max_gap = duration::Minutes(10);
    so.seed = random.Next();
    EventRelation stream = workload::GenerateStream(so);
    auto expected =
        run("serial", {}, std::span<const Event>(stream.events()));

    const Duration bound =
        duration::Minutes(random.UniformInt(2, 120));
    std::vector<Event> shuffled =
        workload::ShuffleWithinBound(stream.events(), bound, random.Next());
    engine::EngineOptions options;
    options.lateness_bound = bound;
    const char* name = kEngines[random.Index(std::size(kEngines))];
    if (std::string_view(name) == "parallel") {
      options.num_shards = static_cast<int>(random.UniformInt(1, 8));
      options.rebalance.enabled = random.Bernoulli(0.5);
      options.rebalance.interval_events = 64;
    }
    EXPECT_EQ(run(name, options, std::span<const Event>(shuffled)), expected)
        << "trial " << trial << " engine " << name << " bound " << bound;
  }
}

TEST(CsvFuzz, RandomBytesNeverCrash) {
  Random random(777);
  Schema schema = ChemotherapySchema();
  for (int trial = 0; trial < 300; ++trial) {
    std::string input = "T,ID,L,V,U\n";
    size_t length = random.Uniform(200);
    for (size_t i = 0; i < length; ++i) {
      input += static_cast<char>(random.Uniform(128));
    }
    Result<EventRelation> result = ReadCsvString(input, schema);
    (void)result.ok();
  }
}

TEST(StorageFuzz, EveryByteFlipIsDetectedOrHarmless) {
  // Write a small multi-page table, then flip one byte at a time across
  // the whole file (sampled stride for speed). Each read must either fail
  // with a clean error or return exactly the original data — silent
  // corruption would falsify query results.
  workload::StreamOptions options;
  options.num_events = 2500;
  options.seed = 5150;
  EventRelation original = workload::GenerateStream(options);
  std::string path = (fs::temp_directory_path() / "ses_fuzz.sestbl").string();
  ASSERT_TRUE(storage::WriteTable(original, path).ok());

  std::string bytes;
  {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), storage::kPageSize);

  Random random(1);
  int detected = 0;
  int harmless = 0;
  for (size_t offset = 0; offset < bytes.size();
       offset += 1 + random.Uniform(97)) {
    std::string corrupted = bytes;
    corrupted[offset] =
        static_cast<char>(corrupted[offset] ^ (1u << random.Uniform(8)));
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(corrupted.data(),
                 static_cast<std::streamsize>(corrupted.size()));
    }
    Result<EventRelation> loaded = storage::ReadTable(path);
    if (!loaded.ok()) {
      ++detected;
      continue;
    }
    // A successful read must be byte-identical in content. (Reaching this
    // branch is possible only when the flip hit page padding, which is
    // not part of any record — the page CRC covers padding too, so in
    // practice everything is detected.)
    ASSERT_EQ(loaded->size(), original.size()) << "offset " << offset;
    for (size_t i = 0; i < original.size(); ++i) {
      ASSERT_EQ(loaded->event(i).timestamp(), original.event(i).timestamp());
      ASSERT_EQ(loaded->event(i).values(), original.event(i).values());
    }
    ++harmless;
  }
  EXPECT_GT(detected, 0);
  EXPECT_EQ(harmless, 0) << "page CRCs cover padding; nothing should slip";
  fs::remove(path);
}

TEST(StorageFuzz, RandomTruncationsAreDetected) {
  workload::StreamOptions options;
  options.num_events = 1200;
  options.seed = 60;
  EventRelation original = workload::GenerateStream(options);
  std::string path =
      (fs::temp_directory_path() / "ses_fuzz_trunc.sestbl").string();
  ASSERT_TRUE(storage::WriteTable(original, path).ok());
  uintmax_t full_size = fs::file_size(path);

  Random random(2);
  for (int trial = 0; trial < 40; ++trial) {
    uintmax_t new_size = random.Uniform(full_size);
    // Re-write then truncate (resize_file keeps contents).
    {
      std::ifstream in(path, std::ios::binary);
    }
    fs::resize_file(path, new_size);
    Result<EventRelation> loaded = storage::ReadTable(path);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << new_size;
    // Restore for the next trial.
    ASSERT_TRUE(storage::WriteTable(original, path).ok());
  }
  fs::remove(path);
}

}  // namespace
}  // namespace ses
