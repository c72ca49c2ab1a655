// Checkpoint/restore correctness (docs/SEMANTICS.md section 12).
//
// The core obligation is the exact-resume contract: kill a run at an
// arbitrary event offset, restore the newest checkpoint into a fresh
// engine, push the remaining events, and the union of matches delivered
// before the kill and after the restore is byte-identical — same
// substitution keys, same bound events — to an uninterrupted run, and the
// restored engine's statistics converge to the uninterrupted ones. This is
// proven differentially here across all three engines, parallel shard
// counts {1,2,4,8}, and the multi-plan catalog engine.
//
// The second obligation is that a damaged or mismatched checkpoint file is
// always a clean error — truncation at every offset, any flipped byte, an
// older or future schema_version, or a file from a differently-configured
// runtime must yield Corruption/InvalidArgument, never undefined behavior.
// These tests run under ASan/UBSan and TSan in CI
// (.github/workflows/ci.yml, crash-recovery + tsan jobs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "core/match.h"
#include "engine/registry.h"
#include "engine_counters.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/checkpoint.h"
#include "workload/generic_generator.h"
#include "workload/paper_fixture.h"

namespace ses {
namespace {

using ::ses::engine::CollectInto;
using ::ses::engine::CreateEngine;
using ::ses::engine::Engine;
using ::ses::engine::EngineCounters;
using ::ses::engine::EngineOptions;
using ::ses::engine::EngineStats;
using ::ses::storage::CheckpointReader;
using ::ses::storage::CheckpointWriter;
using ::ses::workload::ChemotherapySchema;

Pattern MustParse(const std::string& text) {
  Result<Pattern> pattern = ParsePattern(text, ChemotherapySchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  return *pattern;
}

/// Group-free pattern with a complete equality graph on ID: accepted by
/// every engine, the partition-pure pair included.
Pattern CompletePattern(const std::string& window = "5h") {
  return MustParse(
      "PATTERN {a, b} -> {x} WHERE a.L = 'A' AND b.L = 'B' AND x.L = 'X' "
      "AND a.ID = b.ID AND a.ID = x.ID AND b.ID = x.ID WITHIN " + window);
}

/// Group-variable variant (p+), still partition-complete on ID; exercises
/// checkpointing of set-collecting instances.
Pattern GroupPattern() {
  return MustParse(
      "PATTERN {a, p+} -> {x} WHERE a.L = 'A' AND p.L = 'B' AND x.L = 'X' "
      "AND a.ID = p.ID AND a.ID = x.ID AND p.ID = x.ID WITHIN 5h");
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

std::vector<std::vector<std::pair<VariableId, EventId>>> NormalizedKeys(
    std::vector<Match> matches) {
  SortMatches(&matches);
  std::vector<std::vector<std::pair<VariableId, EventId>>> keys;
  keys.reserve(matches.size());
  for (const Match& match : matches) keys.push_back(match.SubstitutionKey());
  return keys;
}

std::shared_ptr<const plan::CompiledPlan> MustCompile(const Pattern& pattern) {
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(pattern);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// The uninterrupted reference: one engine, whole stream, one Flush.
std::vector<Match> RunReference(const std::string& name,
                                std::shared_ptr<const plan::CompiledPlan> plan,
                                std::span<const Event> events,
                                EngineOptions options = {},
                                EngineStats* stats = nullptr) {
  std::vector<Match> matches;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine(name, std::move(plan), std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->PushBatch(events).ok());
  EXPECT_TRUE((*engine)->Flush().ok());
  if (stats != nullptr) *stats = (*engine)->stats();
  return matches;
}

/// Serializes engine state at `crash_at` events, abandons the first engine
/// (the crash: everything not yet delivered to its sink is gone), restores
/// a second engine from the bytes, and finishes the stream there. Returns
/// the union of pre-crash and post-restore deliveries — what a durable
/// downstream consumer would have seen across the outage.
std::vector<Match> RunCrashRestore(
    const std::string& name, std::shared_ptr<const plan::CompiledPlan> plan,
    std::span<const Event> events, size_t crash_at,
    EngineOptions options = {}, EngineStats* stats = nullptr) {
  std::vector<Match> matches;
  EngineOptions first_options = options;
  first_options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> first =
      CreateEngine(name, plan, std::move(first_options));
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  for (size_t i = 0; i < crash_at; ++i) {
    EXPECT_TRUE((*first)->Push(events[i]).ok());
  }
  CheckpointWriter writer;
  Status status = (*first)->Checkpoint(&writer);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::string bytes = std::move(writer).Finish();
  (*first).reset();  // the crash

  Result<CheckpointReader> reader = CheckpointReader::Parse(std::move(bytes));
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  EngineOptions second_options = options;
  second_options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> second =
      CreateEngine(name, std::move(plan), std::move(second_options));
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  status = (*second)->Restore(*reader);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE((*second)->PushBatch(events.subspan(crash_at)).ok());
  EXPECT_TRUE((*second)->Flush().ok());
  if (stats != nullptr) *stats = (*second)->stats();
  return matches;
}

void ExpectStatsMatch(const EngineStats& reference, const EngineStats& got,
                      const std::vector<std::string>& exclude) {
  std::vector<std::pair<std::string, int64_t>> want = EngineCounters(reference);
  std::vector<std::pair<std::string, int64_t>> have = EngineCounters(got);
  ASSERT_EQ(want.size(), have.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::find(exclude.begin(), exclude.end(), want[i].first) !=
        exclude.end()) {
      continue;
    }
    EXPECT_EQ(want[i].second, have[i].second)
        << "counter " << want[i].first << " diverged across crash-restore";
  }
}

// --- Exact-resume differential matrix ---

struct MatrixCase {
  const char* engine;
  int threads;        // parallel only; 0 elsewhere
  bool group;         // group-variable pattern
};

class CrashRestoreMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CrashRestoreMatrix, MatchesUninterruptedRunAtEveryOffset) {
  const MatrixCase& param = GetParam();
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(param.group ? GroupPattern() : CompletePattern());
  EventRelation stream = KeyedStream(/*seed=*/7, /*partitions=*/6,
                                     /*events=*/400, /*skew=*/0.4);
  std::span<const Event> events(stream.events());

  EngineOptions options;
  if (param.threads > 0) options.num_shards = param.threads;

  EngineStats reference_stats;
  std::vector<Match> reference = RunReference(param.engine, plan, events,
                                              options, &reference_stats);
  const bool parallel = std::string(param.engine) == "parallel";
  for (size_t crash_at : {size_t{0}, size_t{1}, events.size() / 3,
                          events.size() / 2, events.size() - 1}) {
    EngineStats stats;
    std::vector<Match> got = RunCrashRestore(param.engine, plan, events,
                                             crash_at, options, &stats);
    EXPECT_EQ(NormalizedKeys(reference), NormalizedKeys(got))
        << param.engine << " diverged with crash at " << crash_at;
    ExpectStatsMatch(reference_stats, stats,
                     parallel ? ParallelExclusions()
                              : std::vector<std::string>());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, CrashRestoreMatrix,
    ::testing::Values(
        MatrixCase{"serial", 0, false},
        MatrixCase{"serial", 0, true},
        MatrixCase{"partitioned", 0, false},
        MatrixCase{"partitioned", 0, true},
        MatrixCase{"parallel", 1, true},
        MatrixCase{"parallel", 2, false},
        MatrixCase{"parallel", 4, true},
        MatrixCase{"parallel", 8, true},
        MatrixCase{"parallel", 8, false}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = info.param.engine;
      if (info.param.threads > 0) {
        name += "_x" + std::to_string(info.param.threads);
      }
      name += info.param.group ? "_group" : "_flat";
      return name;
    });

// --- Periodic triggering through EngineOptions ---

TEST(CheckpointPeriodic, SinkFiresEveryIntervalAndResumesAligned) {
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  EventRelation stream = KeyedStream(/*seed=*/3, /*partitions=*/4,
                                     /*events=*/250);
  std::span<const Event> events(stream.events());

  std::vector<Match> matches;
  int64_t fired = 0;
  std::string third;  // the checkpoint taken at event 150
  EngineOptions options;
  options.sink = CollectInto(&matches);
  options.checkpoint_interval_events = 50;
  options.checkpoint_sink = [&](CheckpointWriter& writer) -> Status {
    if (++fired == 3) third = std::move(writer).Finish();
    return Status::OK();
  };
  Result<std::unique_ptr<Engine>> engine = CreateEngine("serial", plan,
                                                        std::move(options));
  ASSERT_TRUE(engine.ok());
  for (const Event& event : events) {
    ASSERT_TRUE((*engine)->Push(event).ok());
  }
  // 250 events / interval 50 = one checkpoint per boundary.
  EXPECT_EQ(fired, 5);
  ASSERT_FALSE(third.empty());
  ASSERT_TRUE((*engine)->Flush().ok());
  std::vector<Match> reference = matches;
  SortMatches(&reference);

  // Resume from the event-150 checkpoint; the restored engine must also
  // re-align its own periodic trigger: pushing the remaining 100 events in
  // one batch crosses the 200-event boundary, so the sink fires once more.
  matches.clear();
  int64_t resumed_fires = 0;
  EngineOptions resume_options;
  resume_options.sink = CollectInto(&matches);
  resume_options.checkpoint_interval_events = 50;
  resume_options.checkpoint_sink = [&](CheckpointWriter&) -> Status {
    ++resumed_fires;
    return Status::OK();
  };
  Result<std::unique_ptr<Engine>> resumed =
      CreateEngine("serial", plan, std::move(resume_options));
  ASSERT_TRUE(resumed.ok());
  Result<CheckpointReader> reader = CheckpointReader::Parse(third);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE((*resumed)->Restore(*reader).ok());
  ASSERT_TRUE((*resumed)->PushBatch(events.subspan(150)).ok());
  ASSERT_TRUE((*resumed)->Flush().ok());
  // The restored run lacks the pre-checkpoint early deliveries (they went
  // to the first engine); compare via the total emitted count, which the
  // checkpoint carries across.
  EXPECT_EQ((*resumed)->stats().matches_emitted,
            static_cast<int64_t>(reference.size()));
  // PushBatch checks the trigger once per call: one batch, one firing.
  EXPECT_EQ(resumed_fires, 1);
}

TEST(CheckpointPeriodic, SinkErrorAbortsThePush) {
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  EventRelation stream = KeyedStream(/*seed=*/5, /*partitions=*/3,
                                     /*events=*/40);
  std::vector<Match> matches;
  EngineOptions options;
  options.sink = CollectInto(&matches);
  options.checkpoint_interval_events = 10;
  options.checkpoint_sink = [](CheckpointWriter&) -> Status {
    return Status::IoError("disk full");
  };
  Result<std::unique_ptr<Engine>> engine = CreateEngine("serial", plan,
                                                        std::move(options));
  ASSERT_TRUE(engine.ok());
  Status status = (*engine)->PushBatch(
      std::span<const Event>(stream.events()));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(CheckpointPeriodic, CheckpointingIsTransparent) {
  // Taking checkpoints must not change what a run emits or counts.
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(GroupPattern());
  EventRelation stream = KeyedStream(/*seed=*/13, /*partitions=*/6,
                                     /*events=*/300, /*skew=*/0.5);
  std::span<const Event> events(stream.events());
  // Both runs push event-at-a-time so the only difference between them is
  // whether checkpoints are being taken.
  auto run = [&](const char* name, int64_t interval, EngineStats* stats) {
    EngineOptions options;
    if (interval > 0) {
      options.checkpoint_interval_events = interval;
      options.checkpoint_sink = [](CheckpointWriter& writer) -> Status {
        std::string discard = std::move(writer).Finish();
        return discard.empty() ? Status::Internal("empty checkpoint")
                               : Status::OK();
      };
    }
    std::vector<Match> matches;
    options.sink = CollectInto(&matches);
    Result<std::unique_ptr<Engine>> engine = CreateEngine(name, plan,
                                                          std::move(options));
    EXPECT_TRUE(engine.ok());
    for (const Event& event : events) {
      EXPECT_TRUE((*engine)->Push(event).ok());
    }
    EXPECT_TRUE((*engine)->Flush().ok());
    *stats = (*engine)->stats();
    return matches;
  };
  for (const char* name : {"serial", "partitioned", "parallel"}) {
    EngineStats plain_stats;
    std::vector<Match> plain = run(name, 0, &plain_stats);
    EngineStats checked_stats;
    std::vector<Match> checked = run(name, 25, &checked_stats);
    EXPECT_EQ(NormalizedKeys(plain), NormalizedKeys(checked)) << name;
    ExpectStatsMatch(plain_stats, checked_stats,
                     std::string(name) == "parallel"
                         ? ParallelExclusions()
                         : std::vector<std::string>());
  }
}

// --- Catalog engine: one nested checkpoint per plan ---

TEST(CheckpointCatalog, RestoresEveryRegisteredPlan) {
  auto catalog = std::make_shared<catalog::QueryCatalog>();
  ASSERT_TRUE(catalog->Add("wide", MustCompile(CompletePattern("5h"))).ok());
  ASSERT_TRUE(catalog->Add("narrow", MustCompile(CompletePattern("2h"))).ok());
  ASSERT_TRUE(catalog->Add("grouped", MustCompile(GroupPattern())).ok());
  EventRelation stream = KeyedStream(/*seed=*/17, /*partitions=*/5,
                                     /*events=*/300);
  std::span<const Event> events(stream.events());

  auto run = [&](size_t crash_at,
                 std::map<std::string, std::vector<Match>>* by_plan)
      -> Status {
    catalog::CatalogOptions options;
    options.sink = [by_plan](std::string_view id, Match&& match) {
      (*by_plan)[std::string(id)].push_back(std::move(match));
    };
    SES_ASSIGN_OR_RETURN(
        std::unique_ptr<catalog::CatalogEngine> first,
        catalog::CatalogEngine::Create(catalog, std::move(options)));
    SES_RETURN_IF_ERROR(first->PushBatch(events.subspan(0, crash_at)));
    CheckpointWriter writer;
    SES_RETURN_IF_ERROR(first->Checkpoint(&writer));
    std::string bytes = std::move(writer).Finish();
    first.reset();  // the crash

    SES_ASSIGN_OR_RETURN(CheckpointReader reader,
                         CheckpointReader::Parse(std::move(bytes)));
    catalog::CatalogOptions resume;
    resume.sink = [by_plan](std::string_view id, Match&& match) {
      (*by_plan)[std::string(id)].push_back(std::move(match));
    };
    SES_ASSIGN_OR_RETURN(
        std::unique_ptr<catalog::CatalogEngine> second,
        catalog::CatalogEngine::Create(catalog, std::move(resume)));
    SES_RETURN_IF_ERROR(second->Restore(reader));
    SES_RETURN_IF_ERROR(second->PushBatch(events.subspan(crash_at)));
    return second->Flush();
  };

  std::map<std::string, std::vector<Match>> reference;
  {
    catalog::CatalogOptions options;
    options.sink = [&reference](std::string_view id, Match&& match) {
      reference[std::string(id)].push_back(std::move(match));
    };
    Result<std::unique_ptr<catalog::CatalogEngine>> engine =
        catalog::CatalogEngine::Create(catalog, std::move(options));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->PushBatch(events).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
  }
  ASSERT_EQ(reference.size(), 3u);

  for (size_t crash_at : {events.size() / 3, events.size() / 2}) {
    std::map<std::string, std::vector<Match>> got;
    Status status = run(crash_at, &got);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(got.size(), reference.size());
    for (auto& [id, matches] : reference) {
      EXPECT_EQ(NormalizedKeys(matches), NormalizedKeys(got[id]))
          << "plan " << id << " diverged with catalog crash at " << crash_at;
    }
  }
}

TEST(CheckpointCatalog, RejectsMismatchedPlanSet) {
  auto catalog = std::make_shared<catalog::QueryCatalog>();
  ASSERT_TRUE(catalog->Add("only", MustCompile(CompletePattern())).ok());
  catalog::CatalogOptions options;
  options.sink = [](std::string_view, Match&&) {};
  Result<std::unique_ptr<catalog::CatalogEngine>> engine =
      catalog::CatalogEngine::Create(catalog, options);
  ASSERT_TRUE(engine.ok());
  CheckpointWriter writer;
  ASSERT_TRUE((*engine)->Checkpoint(&writer).ok());
  Result<CheckpointReader> reader =
      CheckpointReader::Parse(std::move(writer).Finish());
  ASSERT_TRUE(reader.ok());

  auto other = std::make_shared<catalog::QueryCatalog>();
  ASSERT_TRUE(other->Add("renamed", MustCompile(CompletePattern())).ok());
  Result<std::unique_ptr<catalog::CatalogEngine>> victim =
      catalog::CatalogEngine::Create(other, options);
  ASSERT_TRUE(victim.ok());
  Status status = (*victim)->Restore(*reader);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

// --- Configuration mismatches are clean errors ---

std::string SerializedCheckpoint(const std::string& engine_name,
                                 std::shared_ptr<const plan::CompiledPlan>
                                     plan,
                                 EngineOptions options = {}) {
  options.sink = [](Match&&) {};
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine(engine_name, std::move(plan), std::move(options));
  EXPECT_TRUE(engine.ok());
  EventRelation stream = KeyedStream(/*seed=*/23, /*partitions=*/4,
                                     /*events=*/120);
  EXPECT_TRUE(
      (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
  CheckpointWriter writer;
  EXPECT_TRUE((*engine)->Checkpoint(&writer).ok());
  return std::move(writer).Finish();
}

TEST(CheckpointMismatch, WrongEngineIsInvalidArgument) {
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  Result<CheckpointReader> reader =
      CheckpointReader::Parse(SerializedCheckpoint("serial", plan));
  ASSERT_TRUE(reader.ok());
  EngineOptions options;
  options.sink = [](Match&&) {};
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("partitioned", plan, std::move(options));
  ASSERT_TRUE(engine.ok());
  Status status = (*engine)->Restore(*reader);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST(CheckpointMismatch, PartitionKeyOfTheWrongTypeIsCorruption) {
  // A well-framed partitioned checkpoint whose one partition key is a
  // DOUBLE, which the ID attribute cannot hold: restore refuses it before
  // the key reaches the partition index (every parallel shard restores
  // through the same PartitionedMatcher).
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  Result<CheckpointReader> original =
      CheckpointReader::Parse(SerializedCheckpoint("partitioned", plan));
  ASSERT_TRUE(original.ok());
  std::string state;
  storage::PutCount(&state, 1);
  storage::PutValue(&state, Value(1.5));
  storage::PutSigned(&state, duration::Hours(1));  // its newest timestamp
  CheckpointWriter writer;
  writer.AddSection("engine", *original->Section("engine"));
  writer.AddSection("state", state);
  Result<CheckpointReader> reader =
      CheckpointReader::Parse(std::move(writer).Finish());
  ASSERT_TRUE(reader.ok());
  EngineOptions options;
  options.sink = [](Match&&) {};
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("partitioned", plan, std::move(options));
  ASSERT_TRUE(engine.ok());
  Status status = (*engine)->Restore(*reader);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(CheckpointMismatch, DifferentShardCountIsCleanError) {
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  EngineOptions four;
  four.num_shards = 4;
  Result<CheckpointReader> reader =
      CheckpointReader::Parse(SerializedCheckpoint("parallel", plan, four));
  ASSERT_TRUE(reader.ok());
  EngineOptions two;
  two.num_shards = 2;
  two.sink = [](Match&&) {};
  Result<std::unique_ptr<Engine>> engine =
      CreateEngine("parallel", plan, std::move(two));
  ASSERT_TRUE(engine.ok());
  Status status = (*engine)->Restore(*reader);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
              status.code() == StatusCode::kInvalidArgument)
      << status.ToString();
}

// --- Damaged files: Corruption/InvalidArgument, never UB ---
//
// These sweeps are the teeth of the sanitizer jobs: every decoder is
// bounds-checked, so ASan/UBSan/TSan runs of this binary prove a damaged
// checkpoint cannot read out of bounds no matter which byte is wrong.

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = MustCompile(GroupPattern());
    bytes_ = SerializedCheckpoint("serial", plan_);
    ASSERT_GT(bytes_.size(), 16u);
  }

  /// Parse + (when parseable) restore into a fresh engine; either step may
  /// reject, neither may crash.
  Status ParseAndRestore(std::string bytes) {
    Result<CheckpointReader> reader = CheckpointReader::Parse(
        std::move(bytes));
    if (!reader.ok()) return reader.status();
    EngineOptions options;
    options.sink = [](Match&&) {};
    Result<std::unique_ptr<Engine>> engine =
        CreateEngine("serial", plan_, std::move(options));
    EXPECT_TRUE(engine.ok());
    return (*engine)->Restore(*reader);
  }

  std::shared_ptr<const plan::CompiledPlan> plan_;
  std::string bytes_;
};

TEST_F(CheckpointCorruption, TruncationAtEveryOffsetIsClean) {
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Status status = ParseAndRestore(bytes_.substr(0, len));
    EXPECT_FALSE(status.ok()) << "truncated to " << len << " bytes parsed";
    EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                status.code() == StatusCode::kInvalidArgument)
        << "len " << len << ": " << status.ToString();
  }
}

TEST_F(CheckpointCorruption, EveryFlippedByteIsClean) {
  for (size_t i = 0; i < bytes_.size(); ++i) {
    std::string damaged = bytes_;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    Status status = ParseAndRestore(std::move(damaged));
    EXPECT_FALSE(status.ok()) << "flip at " << i << " went unnoticed";
    EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                status.code() == StatusCode::kInvalidArgument)
        << "offset " << i << ": " << status.ToString();
  }
}

TEST_F(CheckpointCorruption, FutureSchemaVersionIsInvalidArgument) {
  // Layout: magic(fixed32 LE) schema_version(fixed32 LE) ...
  std::string future = bytes_;
  future[4] = static_cast<char>(storage::kCheckpointVersion + 1);
  Status status = ParseAndRestore(std::move(future));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(CheckpointCorruption, OlderSchemaVersionIsInvalidArgument) {
  // Payload layouts change between versions: an older file must be refused
  // up front, not parsed with its fields shifted. Every older version is
  // checked, and the rejection precedes the file CRC check (the CRC is not
  // recomputed here).
  for (uint32_t version = 0; version < storage::kCheckpointVersion;
       ++version) {
    std::string older = bytes_;
    older[4] = static_cast<char>(version);
    Status status = ParseAndRestore(std::move(older));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "version " << version << ": " << status.ToString();
  }
}

TEST_F(CheckpointCorruption, BadMagicIsInvalidArgument) {
  std::string wrong = bytes_;
  wrong[0] = static_cast<char>(wrong[0] ^ 0xFF);
  Status status = ParseAndRestore(std::move(wrong));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(CheckpointCorruption, EmptyFileIsClean) {
  Status status = ParseAndRestore(std::string());
  EXPECT_FALSE(status.ok());
}

// --- Container and primitive roundtrips ---

TEST(CheckpointContainer, SectionRoundtrip) {
  CheckpointWriter writer;
  writer.AddSection("alpha", "payload one");
  writer.AddSection("beta", std::string("\0\x01\x02", 3));
  Result<CheckpointReader> reader =
      CheckpointReader::Parse(std::move(writer).Finish());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->Contains("alpha"));
  ASSERT_TRUE(reader->Contains("beta"));
  EXPECT_FALSE(reader->Contains("gamma"));
  Result<std::string_view> alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, "payload one");
  Result<std::string_view> beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, std::string_view("\0\x01\x02", 3));
  EXPECT_EQ(reader->Section("gamma").status().code(), StatusCode::kNotFound);
}

TEST(CheckpointContainer, FileRoundtripIsAtomic) {
  CheckpointWriter writer;
  writer.AddSection("s", "state");
  std::string bytes = std::move(writer).Finish();
  std::string path = ::testing::TempDir() + "/ckpt_roundtrip.sesckpt";
  ASSERT_TRUE(storage::WriteCheckpointFile(path, bytes).ok());
  // Overwrite with different content: the rename must replace atomically.
  CheckpointWriter second;
  second.AddSection("s", "newer state");
  std::string newer = std::move(second).Finish();
  ASSERT_TRUE(storage::WriteCheckpointFile(path, newer).ok());
  Result<std::string> read = storage::ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, newer);
  std::remove(path.c_str());
}

TEST(CheckpointPrimitives, RoundtripAllScalarKinds) {
  std::string buffer;
  storage::PutCount(&buffer, 0);
  storage::PutCount(&buffer, 1u << 20);
  storage::PutSigned(&buffer, -42);
  storage::PutSigned(&buffer, int64_t{1} << 40);
  storage::PutDouble(&buffer, 2.5);
  storage::PutBool(&buffer, true);
  storage::PutString(&buffer, "hello");
  const char* p = buffer.data();
  const char* limit = p + buffer.size();
  uint64_t count = 99;
  int64_t value = 0;
  double real = 0;
  bool flag = false;
  std::string text;
  ASSERT_TRUE(storage::GetCount(&p, limit, &count).ok());
  EXPECT_EQ(count, 0u);
  ASSERT_TRUE(storage::GetCount(&p, limit, &count).ok());
  EXPECT_EQ(count, 1u << 20);
  ASSERT_TRUE(storage::GetSigned(&p, limit, &value).ok());
  EXPECT_EQ(value, -42);
  ASSERT_TRUE(storage::GetSigned(&p, limit, &value).ok());
  EXPECT_EQ(value, int64_t{1} << 40);
  ASSERT_TRUE(storage::GetDouble(&p, limit, &real).ok());
  EXPECT_EQ(real, 2.5);
  ASSERT_TRUE(storage::GetBool(&p, limit, &flag).ok());
  EXPECT_TRUE(flag);
  ASSERT_TRUE(storage::GetString(&p, limit, &text).ok());
  EXPECT_EQ(text, "hello");
  EXPECT_EQ(p, limit);
  // One more read past the end must fail cleanly.
  EXPECT_EQ(storage::GetCount(&p, limit, &count).code(),
            StatusCode::kCorruption);
}

TEST(CheckpointPrimitives, MatchRoundtripPreservesBindings) {
  std::shared_ptr<const plan::CompiledPlan> plan =
      MustCompile(CompletePattern());
  EventRelation stream = KeyedStream(/*seed=*/29, /*partitions=*/3,
                                     /*events=*/200);
  std::vector<Match> matches;
  EngineOptions options;
  options.sink = CollectInto(&matches);
  Result<std::unique_ptr<Engine>> engine = CreateEngine("serial", plan,
                                                        std::move(options));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  ASSERT_FALSE(matches.empty());
  const Schema& schema = stream.schema();
  std::string buffer;
  for (const Match& match : matches) {
    CheckpointMatch(match, schema, &buffer);
  }
  const char* p = buffer.data();
  const char* limit = p + buffer.size();
  for (const Match& want : matches) {
    Match got;
    ASSERT_TRUE(RestoreMatch(&p, limit, schema, &got).ok());
    EXPECT_EQ(want.SubstitutionKey(), got.SubstitutionKey());
    EXPECT_EQ(want.start_time(), got.start_time());
    EXPECT_EQ(want.end_time(), got.end_time());
  }
  EXPECT_EQ(p, limit);
}

}  // namespace
}  // namespace ses
