// ses_cli — command-line SES pattern matching over CSV files or embedded
// tables, the way a downstream user would script the library.
//
//   # run the paper's Q1 on the bundled Figure 1 data
//   ses_cli --demo
//
//   # match a query against a CSV file (schema declared inline)
//   ses_cli --schema "ID INT, L STRING, V DOUBLE, U STRING"
//           --data events.csv
//           --query "PATTERN {c, p+, d} -> {b} WHERE ... WITHIN 264h"
//
//   # match against an embedded table with a specific engine
//   ses_cli --data events.sestbl --query-file q.ses --engine parallel --stats
//
//   # evaluate a whole catalog of patterns in one pass (docs/CATALOG.md)
//   ses_cli --data events.csv --schema "..." --catalog plans.sescat --stats
//
// Evaluation strategies are resolved through the engine table
// (engine/registry.h): --engine picks one by name, --list-engines shows
// what is available, and --threads N is shorthand for the parallel engine
// with N worker shards. All engines run the same compiled plan and print
// the same matches in the same canonical order.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "common/strings.h"
#include "core/match.h"
#include "engine/registry.h"
#include "event/csv.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/checkpoint.h"
#include "storage/table_reader.h"
#include "workload/paper_fixture.h"

namespace {

using namespace ses;

struct CliArgs {
  std::string schema_text;
  std::string data_path;
  std::string query;
  /// Catalog file of named patterns ([plan-id] headers, docs/CATALOG.md);
  /// non-empty selects multi-pattern evaluation instead of --query.
  std::string catalog_path;
  std::string format = "text";  // text | csv
  /// Registry name of the evaluation strategy; empty = "serial" (or
  /// "parallel" when --threads is given).
  std::string engine;
  bool demo = false;
  bool no_filter = false;
  bool stats = false;
  bool dot = false;
  bool list_engines = false;
  /// Shorthand: N >= 1 selects the parallel engine with N worker shards.
  int threads = 0;
  /// Events per shard batch for the parallel engine (0 = library default).
  int batch = 0;
  /// Columnar ingest: transpose the stream into ColumnarBatch slices and
  /// push through PushColumnar (vectorized sec. 4.5 pre-filter). Matches
  /// are identical to the row path (docs/SEMANTICS.md section 11).
  bool columnar = false;
  /// Rows per columnar slice.
  int batch_rows = 4096;
  /// Non-empty enables periodic checkpoints: every --checkpoint-interval
  /// consumed events the full runtime state (engine + matches printed so
  /// far) is written to DIR/ckpt-<consumed>.sesckpt (docs/RUNTIME.md
  /// checkpoint section). Single-pattern runs only.
  std::string checkpoint_dir;
  long long checkpoint_interval = 10000;
  /// Resume from the newest checkpoint in --checkpoint-dir instead of
  /// starting cold; output is byte-identical to an uninterrupted run
  /// (docs/SEMANTICS.md section 12).
  bool restore = false;
  /// Testing hook for tools/crash_recovery.sh: exit hard (code 137,
  /// no flush, no output) after consuming N events in this process.
  long long crash_after_events = 0;
  /// The engine flags given (--engine, --threads, --batch), in
  /// command-line order. They configure a single-pattern engine, so a
  /// --catalog run rejects them.
  std::vector<std::string> engine_flags;
};

void PrintUsage() {
  std::printf(
      "usage: ses_cli [--demo] [--schema \"NAME TYPE, ...\"] [--data FILE]\n"
      "               [--query TEXT | --query-file FILE | --catalog FILE]\n"
      "               [--engine NAME] [--no-filter] [--list-engines]\n"
      "               [--stats] [--dot] [--format text|csv]\n"
      "               [--threads N] [--batch N]\n"
      "               [--columnar on|off] [--batch-rows N]\n"
      "               [--checkpoint-dir DIR] [--checkpoint-interval N]\n"
      "               [--restore] [--crash-after-events N]\n"
      "  --demo         run the paper's running example (Figure 1 + Q1)\n"
      "  --schema       attribute list for CSV input (TYPE: INT, DOUBLE,\n"
      "                 STRING); .sestbl tables are self-describing\n"
      "  --data         input file (.csv or .sestbl)\n"
      "  --query        SES pattern DSL text (see query/parser.h)\n"
      "  --query-file   read the query from a file\n"
      "  --catalog FILE evaluate a catalog of named patterns in one pass\n"
      "                 over the stream ([plan-id] headers, each followed\n"
      "                 by its query; see docs/CATALOG.md); matches are\n"
      "                 printed tagged with the plan id. --engine,\n"
      "                 --threads and --batch configure single-pattern\n"
      "                 runs only\n"
      "  --engine NAME  evaluation strategy: parallel, partitioned or\n"
      "                 serial (default serial; see --list-engines)\n"
      "  --list-engines print the available engines and exit\n"
      "  --no-filter    disable the event pre-filter (sec. 4.5)\n"
      "  --stats        print execution statistics\n"
      "  --format F     output format: text (default) or csv\n"
      "  --dot          print the SES automaton as Graphviz dot and exit\n"
      "  --threads N    shorthand for --engine parallel with N worker\n"
      "                 shards; the pattern must carry a complete equality\n"
      "                 graph on one attribute (partition key)\n"
      "  --batch N      events per shard batch for the parallel engine\n"
      "                 (ingest enqueues whole slabs; default 256)\n"
      "  --columnar on|off\n"
      "                 ingest through columnar batches with the vectorized\n"
      "                 sec. 4.5 pre-filter (default off; matches are\n"
      "                 identical either way, see docs/RUNTIME.md)\n"
      "  --batch-rows N rows per columnar slice (default 4096)\n"
      "  --checkpoint-dir DIR\n"
      "                 write a checkpoint of the full runtime state to DIR\n"
      "                 every --checkpoint-interval events; a later run with\n"
      "                 --restore resumes from the newest one and prints\n"
      "                 byte-identical output (single-pattern runs; see\n"
      "                 docs/RUNTIME.md)\n"
      "  --checkpoint-interval N\n"
      "                 events between checkpoints (default 10000)\n"
      "  --restore      resume from the newest checkpoint in\n"
      "                 --checkpoint-dir (cold start when none exists yet)\n"
      "  --crash-after-events N\n"
      "                 crash-recovery testing: exit hard with code 137\n"
      "                 after consuming N events (tools/crash_recovery.sh)\n");
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  CliArgs args;
  auto need_value = [&](int& i) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(argv[i]) +
                                     " requires a value");
    }
    return std::string(argv[++i]);
  };
  // The value of a numeric flag: a whole integer within [min, max].
  auto need_int = [&](int& i, int64_t min, int64_t max) -> Result<int64_t> {
    const std::string flag = argv[i];
    SES_ASSIGN_OR_RETURN(std::string text, need_value(i));
    Result<int64_t> value = strings::ParseInt64(text);
    if (!value.ok() || *value < min || *value > max) {
      return Status::InvalidArgument(flag + " must be an integer in [" +
                                     std::to_string(min) + ", " +
                                     std::to_string(max) + "], got '" + text +
                                     "'");
    }
    return *value;
  };
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      args.demo = true;
    } else if (std::strcmp(argv[i], "--schema") == 0) {
      SES_ASSIGN_OR_RETURN(args.schema_text, need_value(i));
    } else if (std::strcmp(argv[i], "--data") == 0) {
      SES_ASSIGN_OR_RETURN(args.data_path, need_value(i));
    } else if (std::strcmp(argv[i], "--query") == 0) {
      SES_ASSIGN_OR_RETURN(args.query, need_value(i));
    } else if (std::strcmp(argv[i], "--query-file") == 0) {
      SES_ASSIGN_OR_RETURN(std::string path, need_value(i));
      std::ifstream file(path);
      if (!file) return Status::IoError("cannot read query file: " + path);
      std::ostringstream buffer;
      buffer << file.rdbuf();
      args.query = buffer.str();
    } else if (std::strcmp(argv[i], "--catalog") == 0) {
      SES_ASSIGN_OR_RETURN(args.catalog_path, need_value(i));
    } else if (std::strcmp(argv[i], "--format") == 0) {
      SES_ASSIGN_OR_RETURN(args.format, need_value(i));
      if (args.format != "text" && args.format != "csv") {
        return Status::InvalidArgument("--format must be text or csv");
      }
    } else if (std::strcmp(argv[i], "--engine") == 0) {
      args.engine_flags.push_back(argv[i]);
      SES_ASSIGN_OR_RETURN(args.engine, need_value(i));
    } else if (std::strcmp(argv[i], "--list-engines") == 0) {
      args.list_engines = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.engine_flags.push_back(argv[i]);
      SES_ASSIGN_OR_RETURN(args.threads, need_int(i, 1, kIntMax));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      args.engine_flags.push_back(argv[i]);
      SES_ASSIGN_OR_RETURN(args.batch, need_int(i, 1, kIntMax));
    } else if (std::strcmp(argv[i], "--columnar") == 0) {
      SES_ASSIGN_OR_RETURN(std::string value, need_value(i));
      if (value == "on") {
        args.columnar = true;
      } else if (value == "off") {
        args.columnar = false;
      } else {
        return Status::InvalidArgument("--columnar must be on or off");
      }
    } else if (std::strcmp(argv[i], "--batch-rows") == 0) {
      SES_ASSIGN_OR_RETURN(args.batch_rows, need_int(i, 1, kIntMax));
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
      SES_ASSIGN_OR_RETURN(args.checkpoint_dir, need_value(i));
    } else if (std::strcmp(argv[i], "--checkpoint-interval") == 0) {
      SES_ASSIGN_OR_RETURN(args.checkpoint_interval,
                           need_int(i, 1, kInt64Max));
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      args.restore = true;
    } else if (std::strcmp(argv[i], "--crash-after-events") == 0) {
      SES_ASSIGN_OR_RETURN(args.crash_after_events,
                           need_int(i, 1, kInt64Max));
    } else if (std::strcmp(argv[i], "--no-filter") == 0) {
      args.no_filter = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      args.stats = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      args.dot = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      std::exit(0);
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(argv[i]));
    }
  }
  return args;
}

/// Loaded input: the schema plus events in time order (every source
/// enforces it at load).
struct LoadedData {
  Schema schema;
  std::vector<Event> events;
};

Result<LoadedData> LoadData(const CliArgs& args) {
  if (args.demo) {
    EventRelation relation = workload::PaperEventRelation();
    return LoadedData{relation.schema(), relation.events()};
  }
  if (args.data_path.empty()) {
    return Status::InvalidArgument("--data is required (or use --demo)");
  }
  if (strings::EndsWith(args.data_path, ".sestbl")) {
    SES_ASSIGN_OR_RETURN(EventRelation relation,
                         storage::ReadTable(args.data_path));
    return LoadedData{relation.schema(), relation.events()};
  }
  if (args.schema_text.empty()) {
    return Status::InvalidArgument("CSV input requires --schema");
  }
  SES_ASSIGN_OR_RETURN(Schema schema, ParseSchemaText(args.schema_text));
  SES_ASSIGN_OR_RETURN(EventRelation relation,
                       ReadCsvFile(args.data_path, schema));
  return LoadedData{relation.schema(), relation.events()};
}

/// Resolves the engine name: --engine wins, --threads implies parallel,
/// default is serial. Rejects contradictory combinations.
Result<std::string> ResolveEngineName(const CliArgs& args) {
  if (!args.engine.empty()) {
    if (args.threads >= 1 && args.engine != "parallel") {
      return Status::InvalidArgument(
          "--threads selects the parallel engine; it cannot be combined "
          "with --engine " + args.engine);
    }
    return args.engine;
  }
  if (args.threads >= 1) return std::string("parallel");
  return std::string("serial");
}

/// Builds the per-engine options every run shape shares (threads, batch).
/// The sink is installed by the caller.
engine::EngineOptions MakeEngineOptions(const CliArgs& args) {
  engine::EngineOptions options;
  if (args.threads >= 1) options.num_shards = args.threads;
  if (args.batch > 0) options.batch_size = static_cast<size_t>(args.batch);
  return options;
}

/// Pushes the loaded events through an engine's columnar ingest in
/// --batch-rows slices: one transpose up front, then PushColumnar per
/// slice. Works for engine::Engine and catalog::CatalogEngine alike; the
/// match set equals the row-wise PushBatch over the same events
/// (docs/SEMANTICS.md section 11).
template <typename EngineT>
Status PushColumnarSlices(EngineT& engine, const Schema& schema,
                          std::span<const Event> events, int batch_rows) {
  ColumnarBatch batch = ColumnarBatch::FromEvents(schema, events);
  const size_t rows = static_cast<size_t>(batch_rows);
  if (batch.size() <= rows) return engine.PushColumnar(batch);
  for (size_t begin = 0; begin < batch.size(); begin += rows) {
    const size_t count = std::min(rows, batch.size() - begin);
    SES_RETURN_IF_ERROR(engine.PushColumnar(batch.Slice(begin, count)));
  }
  return Status::OK();
}

/// Path of the newest (highest consumed-event offset) "ckpt-*.sesckpt" in
/// `dir`; empty string when none exists yet — a crash can land before the
/// first checkpoint interval elapses, in which case a --restore run simply
/// starts cold. Filenames embed the offset zero-padded, so the
/// lexicographic maximum is the newest.
Result<std::string> NewestCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list checkpoint dir " + dir + ": " +
                           ec.message());
  }
  std::string best;
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    if (!strings::EndsWith(name, ".sesckpt")) continue;
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name > best) best = name;
  }
  if (best.empty()) return std::string();
  return dir + "/" + best;
}

/// Parses a catalog file (documented in docs/CATALOG.md): entries of the
/// form
///
///   # comment
///   [plan-id]
///   PATTERN {...} -> {...} WHERE ... WITHIN ...
///
/// where the query text runs until the next [plan-id] header. Returns
/// (id, query) pairs in file order; id uniqueness is enforced by
/// QueryCatalog::Add.
Result<std::vector<std::pair<std::string, std::string>>> ParseCatalogFile(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot read catalog file: " + path);
  std::vector<std::pair<std::string, std::string>> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    std::string_view trimmed = strings::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']') {
        return Status::InvalidArgument(
            path + ":" + std::to_string(line_number) +
            ": [plan-id] header is missing the closing ']'");
      }
      std::string id(strings::Trim(trimmed.substr(1, trimmed.size() - 2)));
      if (id.empty()) {
        return Status::InvalidArgument(path + ":" +
                                       std::to_string(line_number) +
                                       ": [plan-id] header is empty");
      }
      entries.emplace_back(std::move(id), std::string());
      continue;
    }
    if (entries.empty()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": query text before the first [plan-id] header");
    }
    entries.back().second.append(line).append("\n");
  }
  if (entries.empty()) {
    return Status::InvalidArgument("catalog file has no [plan-id] entries: " +
                                   path);
  }
  return entries;
}

/// Multi-pattern run: every catalog entry is parsed against the stream
/// schema, compiled, registered, and evaluated in one pass by a
/// CatalogEngine. Output is the same canonical per-plan listing a loop of
/// single-pattern serial runs would print, each line tagged with its plan
/// id.
Status RunCatalog(const CliArgs& args) {
  SES_ASSIGN_OR_RETURN(LoadedData data, LoadData(args));
  SES_ASSIGN_OR_RETURN(auto entries, ParseCatalogFile(args.catalog_path));

  plan::PlanOptions plan_options;
  plan_options.enable_prefilter = !args.no_filter;

  auto query_catalog = std::make_shared<catalog::QueryCatalog>();
  std::map<std::string, Pattern> patterns;  // id -> pattern, for printing
  for (auto& [id, text] : entries) {
    Result<Pattern> pattern = ParsePattern(text, data.schema);
    if (!pattern.ok()) {
      return Status(pattern.status().code(),
                    "plan '" + id + "': " + pattern.status().message());
    }
    Result<std::shared_ptr<const plan::CompiledPlan>> plan =
        plan::CompilePlan(*pattern, plan_options);
    if (!plan.ok()) {
      return Status(plan.status().code(),
                    "plan '" + id + "': " + plan.status().message());
    }
    SES_RETURN_IF_ERROR(query_catalog->Add(id, std::move(*plan)));
    patterns.emplace(id, std::move(*pattern));
  }

  catalog::CatalogOptions options;
  std::map<std::string, std::vector<Match>> by_plan;
  options.sink = [&by_plan](std::string_view id, Match&& match) {
    by_plan[std::string(id)].push_back(std::move(match));
  };
  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<catalog::CatalogEngine> engine,
      catalog::CatalogEngine::Create(query_catalog, std::move(options)));

  if (args.columnar) {
    SES_RETURN_IF_ERROR(PushColumnarSlices(
        *engine, data.schema, std::span<const Event>(data.events),
        args.batch_rows));
  } else {
    SES_RETURN_IF_ERROR(
        engine->PushBatch(std::span<const Event>(data.events)));
  }
  SES_RETURN_IF_ERROR(engine->Flush());

  size_t total_matches = 0;
  if (args.format == "csv") {
    // One row per binding, tagged with the plan that produced the match.
    std::printf("plan,match,variable,event,T\n");
    for (auto& [id, matches] : by_plan) {
      SortMatches(&matches);
      const Pattern& pattern = patterns.at(id);
      int match_number = 0;
      for (const Match& match : matches) {
        ++match_number;
        ++total_matches;
        for (const Binding& binding : match.bindings()) {
          std::printf("%s,%d,%s,%lld,%lld\n", id.c_str(), match_number,
                      pattern.variable(binding.variable).ToString().c_str(),
                      static_cast<long long>(binding.event.id()),
                      static_cast<long long>(binding.event.timestamp()));
        }
      }
    }
  } else {
    for (auto& [id, matches] : by_plan) {
      SortMatches(&matches);
      const Pattern& pattern = patterns.at(id);
      for (const Match& match : matches) {
        ++total_matches;
        std::printf("%s: %s  [%s .. %s]\n", id.c_str(),
                    match.ToString(pattern).c_str(),
                    FormatTimestamp(match.start_time()).c_str(),
                    FormatTimestamp(match.end_time()).c_str());
      }
    }
    std::printf("%zu match(es) across %zu plan(s) over %zu events\n",
                total_matches, query_catalog->size(), data.events.size());
  }

  if (args.stats) {
    catalog::CatalogStats stats = engine->stats();
    std::printf(
        "catalog [x%lld]: %lld events pushed, %lld matches; type index "
        "on %s; %lld/%lld (event,plan) pairs skipped by index, %lld by "
        "shared pre-filter; %lld distinct of %lld plan conditions\n",
        static_cast<long long>(stats.num_plans),
        static_cast<long long>(stats.events_pushed),
        static_cast<long long>(stats.matches),
        stats.type_attribute >= 0
            ? data.schema.attribute(stats.type_attribute).name.c_str()
            : "<off>",
        static_cast<long long>(stats.events_skipped_by_index),
        static_cast<long long>(stats.events_pushed * stats.num_plans),
        static_cast<long long>(stats.events_skipped_by_prefilter),
        static_cast<long long>(stats.distinct_conditions),
        static_cast<long long>(stats.plan_conditions));
    for (const catalog::PlanStats& row : engine->plan_stats()) {
      std::printf(
          "  plan %-16s %lld match(es), %lld considered, %lld "
          "index-skipped, %lld prefilter-skipped\n",
          row.id.c_str(), static_cast<long long>(row.matches),
          static_cast<long long>(row.events_considered),
          static_cast<long long>(row.events_skipped_by_index),
          static_cast<long long>(row.events_skipped_by_prefilter));
    }
  }
  return Status::OK();
}

Status Run(const CliArgs& args) {
  if (args.list_engines) {
    for (const engine::EngineInfo& info : engine::ListEngines()) {
      std::printf("%-12s %s\n", std::string(info.name).c_str(),
                  std::string(info.description).c_str());
    }
    return Status::OK();
  }

  if (args.restore && args.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--restore requires --checkpoint-dir");
  }
  if (!args.catalog_path.empty()) {
    if (!args.query.empty()) {
      return Status::InvalidArgument(
          "--catalog and --query/--query-file are mutually exclusive");
    }
    if (args.dot) {
      return Status::InvalidArgument(
          "--dot renders a single pattern; use --query");
    }
    if (!args.checkpoint_dir.empty() || args.crash_after_events > 0) {
      return Status::InvalidArgument(
          "--checkpoint-dir/--crash-after-events cover single-pattern runs; "
          "checkpoint a catalog through CatalogEngine::Checkpoint");
    }
    if (!args.engine_flags.empty()) {
      return Status::InvalidArgument(
          args.engine_flags.front() +
          " configures a single-pattern engine; --catalog evaluates every "
          "plan over one ordered stream");
    }
    return RunCatalog(args);
  }

  SES_ASSIGN_OR_RETURN(LoadedData data, LoadData(args));

  std::string query = args.query;
  if (args.demo && query.empty()) {
    query = R"(
      PATTERN {c, p+, d} -> {b}
      WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
        AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
      WITHIN 264h)";
  }
  if (query.empty()) {
    return Status::InvalidArgument("--query or --query-file is required");
  }
  SES_ASSIGN_OR_RETURN(Pattern pattern, ParsePattern(query, data.schema));

  // Compile once; the plan is shared by whichever engine runs it.
  plan::PlanOptions plan_options;
  plan_options.enable_prefilter = !args.no_filter;
  SES_ASSIGN_OR_RETURN(std::shared_ptr<const plan::CompiledPlan> plan,
                       plan::CompilePlan(pattern, plan_options));

  if (args.dot) {
    std::printf("%s", plan->automaton().ToDot().c_str());
    return Status::OK();
  }

  SES_ASSIGN_OR_RETURN(std::string engine_name, ResolveEngineName(args));
  engine::EngineOptions engine_options = MakeEngineOptions(args);
  std::vector<Match> matches;
  engine_options.sink = engine::CollectInto(&matches);

  // Checkpointing: the engine serializes its own state every interval and
  // hands the writer to this sink, which appends the CLI's share (stream
  // position + matches already delivered — delivery order is
  // engine-dependent, so they must ride along to keep output identical)
  // and persists the sealed file. consumed is updated BEFORE each engine
  // call so the snapshot names how deep into the stream it is.
  const bool checkpointing = !args.checkpoint_dir.empty();
  int64_t consumed = 0;  // events offered to the engine so far
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint_dir, ec);
    if (ec) {
      return Status::IoError("cannot create checkpoint dir " +
                             args.checkpoint_dir + ": " + ec.message());
    }
    engine_options.checkpoint_interval_events = args.checkpoint_interval;
    engine_options.checkpoint_sink =
        [&args, &data, &matches,
         &consumed](storage::CheckpointWriter& writer) -> Status {
      std::string cli;
      storage::PutSigned(&cli, consumed);
      storage::PutCount(&cli, matches.size());
      for (const Match& match : matches) {
        CheckpointMatch(match, data.schema, &cli);
      }
      writer.AddSection("cli", cli);
      char name[48];
      std::snprintf(name, sizeof(name), "ckpt-%012lld.sesckpt",
                    static_cast<long long>(consumed));
      return storage::WriteCheckpointFile(args.checkpoint_dir + "/" + name,
                                          std::move(writer).Finish());
    };
  }

  SES_ASSIGN_OR_RETURN(
      std::unique_ptr<engine::Engine> eng,
      engine::CreateEngine(engine_name, plan, std::move(engine_options)));

  if (args.restore) {
    SES_ASSIGN_OR_RETURN(std::string path,
                         NewestCheckpoint(args.checkpoint_dir));
    if (!path.empty()) {
      SES_ASSIGN_OR_RETURN(std::string bytes,
                           storage::ReadCheckpointFile(path));
      SES_ASSIGN_OR_RETURN(storage::CheckpointReader reader,
                           storage::CheckpointReader::Parse(std::move(bytes)));
      SES_RETURN_IF_ERROR(eng->Restore(reader));
      SES_ASSIGN_OR_RETURN(std::string_view cli, reader.Section("cli"));
      const char* p = cli.data();
      const char* limit = p + cli.size();
      SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &consumed));
      uint64_t num_matches = 0;
      SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &num_matches));
      matches.clear();
      matches.reserve(num_matches);
      for (uint64_t i = 0; i < num_matches; ++i) {
        Match match;
        SES_RETURN_IF_ERROR(RestoreMatch(&p, limit, data.schema, &match));
        matches.push_back(std::move(match));
      }
      if (p != limit) {
        return Status::Corruption("checkpoint cli section has trailing bytes");
      }
      if (consumed < 0 ||
          consumed > static_cast<int64_t>(data.events.size())) {
        return Status::InvalidArgument(
            "checkpoint is " + std::to_string(consumed) +
            " events into the stream but --data holds only " +
            std::to_string(data.events.size()));
      }
      std::fprintf(stderr, "restored %s: resuming at event %lld\n",
                   path.c_str(), static_cast<long long>(consumed));
    } else {
      std::fprintf(stderr,
                   "no checkpoint in %s yet: starting from the beginning\n",
                   args.checkpoint_dir.c_str());
    }
  }

  const std::span<const Event> remaining =
      std::span<const Event>(data.events)
          .subspan(static_cast<size_t>(consumed));
  if (checkpointing || args.crash_after_events > 0) {
    // Event-at-a-time (or slice-at-a-time) ingest so checkpoints land at
    // exact event offsets and a simulated crash can strike anywhere.
    int64_t pushed_here = 0;
    auto crash_if_due = [&args, &pushed_here] {
      if (args.crash_after_events > 0 &&
          pushed_here >= args.crash_after_events) {
        std::fprintf(stderr, "simulated crash after %lld event(s)\n",
                     static_cast<long long>(pushed_here));
        std::_Exit(137);
      }
    };
    if (args.columnar) {
      ColumnarBatch batch = ColumnarBatch::FromEvents(data.schema, remaining);
      const size_t rows = static_cast<size_t>(args.batch_rows);
      for (size_t begin = 0; begin < batch.size(); begin += rows) {
        const size_t count = std::min(rows, batch.size() - begin);
        consumed += static_cast<int64_t>(count);
        SES_RETURN_IF_ERROR(eng->PushColumnar(batch.Slice(begin, count)));
        pushed_here += static_cast<int64_t>(count);
        crash_if_due();
      }
    } else {
      for (const Event& event : remaining) {
        ++consumed;
        SES_RETURN_IF_ERROR(eng->Push(event));
        ++pushed_here;
        crash_if_due();
      }
    }
  } else if (args.columnar) {
    SES_RETURN_IF_ERROR(
        PushColumnarSlices(*eng, data.schema, remaining, args.batch_rows));
  } else {
    SES_RETURN_IF_ERROR(eng->PushBatch(remaining));
  }
  SES_RETURN_IF_ERROR(eng->Flush());
  // Engines differ in WHEN matches reach the sink; normalize so every
  // engine prints the identical canonical listing.
  SortMatches(&matches);

  if (args.format == "csv") {
    // One row per binding: match number, variable, event id, timestamp.
    std::printf("match,variable,event,T\n");
    int match_number = 0;
    for (const Match& match : matches) {
      ++match_number;
      for (const Binding& binding : match.bindings()) {
        std::printf("%d,%s,%lld,%lld\n", match_number,
                    pattern.variable(binding.variable).ToString().c_str(),
                    static_cast<long long>(binding.event.id()),
                    static_cast<long long>(binding.event.timestamp()));
      }
    }
  } else {
    for (const Match& match : matches) {
      std::printf("%s  [%s .. %s]\n", match.ToString(pattern).c_str(),
                  FormatTimestamp(match.start_time()).c_str(),
                  FormatTimestamp(match.end_time()).c_str());
    }
    std::printf("%zu match(es) over %zu events\n", matches.size(),
                data.events.size());
  }

  if (args.stats) {
    engine::EngineStats stats = eng->stats();
    std::printf(
        "stats [%s]: %lld events pushed, %lld matches (%lld before the "
        "flush barrier), max %lld buffered, %lld partition(s)\n",
        std::string(eng->name()).c_str(),
        static_cast<long long>(stats.events_pushed),
        static_cast<long long>(stats.matches_emitted),
        static_cast<long long>(stats.matches_emitted_early),
        static_cast<long long>(stats.max_buffered_matches),
        static_cast<long long>(stats.num_partitions));
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Result<CliArgs> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    PrintUsage();
    return 1;
  }
  if (Status status = Run(*args); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
