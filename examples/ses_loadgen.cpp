// ses_loadgen — drives a running ses_server with N concurrent clients and
// reports throughput (events/sec) and match-delivery latency percentiles
// through the bench harness (src/bench/harness.h report schema, --json).
//
//   # 8 clients, 5000 events each, against the server on port 7341
//   ses_loadgen --port 7341 --clients 8 --events 5000
//
//   # dump per-client streams + queries + matches for differential checks
//   ses_loadgen --port 7341 --clients 8 --dump-dir /tmp/load
//
// Each connection is its own stream on the server, so every client's match
// set equals a standalone single-pattern run over its own stream; each
// client flushes as soon as it has pushed. Clients use distinct label
// alphabets ("A3"/"B3" for client 3) so that their expected matches
// differ: a MatchBatch delivered to the wrong connection shows up in the
// diff. --dump-dir writes exactly what tools/server_smoke.sh needs to
// replay each stream through ses_cli and diff the match listings.
//
// Requires the served schema to carry at least one STRING attribute (the
// label) and one INT attribute (the join key); extra attributes are filled
// with deterministic values.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/strings.h"
#include "core/match.h"
#include "event/csv.h"
#include "event/relation.h"
#include "net/client.h"
#include "query/parser.h"

namespace {

using namespace ses;

struct LoadgenArgs {
  int port = 0;
  int clients = 1;
  long events = 5000;
  long batch = 256;
  long window = 1000;  // WITHIN bound, in ticks (seconds)
  long keys = 8;
  int busy_retry_ms = 5;
  bool columnar = false;
  std::string dump_dir;
  std::string json_path;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --port N [options]\n"
      "  --port N          ses_server port on 127.0.0.1 (required)\n"
      "  --clients N       concurrent client connections (default 1)\n"
      "  --events N        events per client (default 5000)\n"
      "  --batch N         events per PushEvents slab (default 256)\n"
      "  --window N        WITHIN bound of the generated plan, in seconds\n"
      "                    (default 1000)\n"
      "  --keys N          distinct join keys per client (default 8)\n"
      "  --busy-retry-ms N backoff before re-sending a Busy-rejected slab\n"
      "                    (default 5)\n"
      "  --columnar        push columnar slabs instead of row-encoded ones\n"
      "  --dump-dir D      write client<i>.{csv,query,matches.csv} under D\n"
      "  --json PATH       write the harness report (schema v%d)\n",
      argv0, bench::BenchReport::kSchemaVersion);
}

Result<LoadgenArgs> ParseArgs(int argc, char** argv) {
  LoadgenArgs args;
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kLongMax = std::numeric_limits<long>::max();
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(std::string(flag) + " needs a value");
      }
      return std::string(argv[++i]);
    };
    // The value of a numeric flag: a whole integer within [min, max].
    auto next_int = [&](int64_t min, int64_t max) -> Result<int64_t> {
      SES_ASSIGN_OR_RETURN(std::string text, next());
      Result<int64_t> value = strings::ParseInt64(text);
      if (!value.ok() || *value < min || *value > max) {
        return Status::InvalidArgument(
            std::string(flag) + " must be an integer in [" +
            std::to_string(min) + ", " + std::to_string(max) + "], got '" +
            text + "'");
      }
      return *value;
    };
    if (flag == "--port") {
      SES_ASSIGN_OR_RETURN(args.port, next_int(1, 65535));
    } else if (flag == "--clients") {
      SES_ASSIGN_OR_RETURN(args.clients, next_int(1, kIntMax));
    } else if (flag == "--events") {
      SES_ASSIGN_OR_RETURN(args.events, next_int(1, kLongMax));
    } else if (flag == "--batch") {
      SES_ASSIGN_OR_RETURN(args.batch, next_int(1, kLongMax));
    } else if (flag == "--window") {
      SES_ASSIGN_OR_RETURN(args.window, next_int(1, kLongMax));
    } else if (flag == "--keys") {
      SES_ASSIGN_OR_RETURN(args.keys, next_int(1, kLongMax));
    } else if (flag == "--busy-retry-ms") {
      SES_ASSIGN_OR_RETURN(args.busy_retry_ms, next_int(0, kIntMax));
    } else if (flag == "--columnar") {
      args.columnar = true;
    } else if (flag == "--dump-dir") {
      SES_ASSIGN_OR_RETURN(args.dump_dir, next());
    } else if (flag == "--json") {
      SES_ASSIGN_OR_RETURN(args.json_path, next());
    } else if (flag == "--help") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else {
      return Status::InvalidArgument("unknown flag: " + std::string(flag));
    }
  }
  if (args.port == 0) {
    return Status::InvalidArgument("--port is required (try --help)");
  }
  return args;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The deterministic stream of client `index`: timestamps 1..events, ids
/// assigned by rank (so a CSV round trip through ses_cli renames nothing),
/// labels alternating A<index>/B<index>, consecutive pairs sharing a join
/// key. Every attribute value is a function of (index, row) alone.
Result<EventRelation> GenerateStream(const Schema& schema, int index,
                                     const LoadgenArgs& args, int label_attr,
                                     int key_attr) {
  EventRelation relation(schema);
  const std::string a_label = "A" + std::to_string(index);
  const std::string b_label = "B" + std::to_string(index);
  for (long i = 0; i < args.events; ++i) {
    std::vector<Value> values;
    values.reserve(schema.num_attributes());
    for (int a = 0; a < schema.num_attributes(); ++a) {
      switch (schema.attribute(a).type) {
        case ValueType::kInt64:
          values.push_back(Value(a == key_attr
                                     ? static_cast<int64_t>((i / 2) %
                                                            args.keys)
                                     : static_cast<int64_t>(i)));
          break;
        case ValueType::kDouble:
          values.push_back(Value(static_cast<double>(i)));
          break;
        case ValueType::kString:
          values.push_back(
              Value(a == label_attr ? (i % 2 == 0 ? a_label : b_label)
                                    : std::string("x")));
          break;
      }
    }
    relation.AppendUnchecked(static_cast<Timestamp>(i + 1),
                             std::move(values));
  }
  return relation;
}

std::string MakeQuery(const Schema& schema, int index,
                      const LoadgenArgs& args, int label_attr, int key_attr) {
  const std::string label = schema.attribute(label_attr).name;
  const std::string key = schema.attribute(key_attr).name;
  const std::string c = std::to_string(index);
  return "PATTERN {a} -> {b}\nWHERE a." + label + " = 'A" + c + "' AND b." +
         label + " = 'B" + c + "' AND a." + key + " = b." + key +
         "\nWITHIN " + std::to_string(args.window) + "s";
}

/// Everything one client run produces, for reporting and --dump-dir.
struct ClientResult {
  Status status;
  int64_t events_pushed = 0;
  int64_t busy_retries = 0;
  std::vector<Match> matches;
  std::vector<double> latencies_ns;
  EventRelation stream;
  std::string query;
};

/// Connect → submit → push every slab. On OK return, `*client` is live
/// and ready for its Flush.
Status PushPhase(int index, const LoadgenArgs& args, ClientResult* out,
                 std::unique_ptr<net::Client>* client,
                 std::vector<int64_t>* push_ns) {
  net::ClientOptions options;
  options.port = static_cast<uint16_t>(args.port);
  options.client_name = "loadgen-" + std::to_string(index);
  options.busy_retry_ms = 0;  // retries counted by hand below

  // Per-slab push wall times; a delivered match is attributed to the slab
  // holding its end event, so latency spans evaluation + delivery. Owned
  // by RunClient — the sink runs during the Flush too.
  auto slab_of = [push_ns, &args](Timestamp end_time) -> size_t {
    const long row = static_cast<long>(end_time) - 1;  // timestamps are 1..N
    return std::min(push_ns->size() - 1,
                    static_cast<size_t>(row / args.batch));
  };
  options.match_sink = [out, push_ns,
                        slab_of](const net::MatchBatchResponse& batch) {
    const int64_t now = NowNs();
    for (const Match& match : batch.matches) {
      if (!push_ns->empty()) {
        out->latencies_ns.push_back(static_cast<double>(
            now - (*push_ns)[slab_of(match.end_time())]));
      }
      out->matches.push_back(match);
    }
  };

  SES_ASSIGN_OR_RETURN(*client, net::Client::Connect(options));
  const Schema& schema = (*client)->schema();
  int label_attr = -1, key_attr = -1;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (label_attr < 0 && schema.attribute(a).type == ValueType::kString) {
      label_attr = a;
    }
    if (key_attr < 0 && schema.attribute(a).type == ValueType::kInt64) {
      key_attr = a;
    }
  }
  if (label_attr < 0 || key_attr < 0) {
    return Status::InvalidArgument(
        "served schema needs a STRING and an INT attribute; got " +
        schema.ToString());
  }

  out->query = MakeQuery(schema, index, args, label_attr, key_attr);
  SES_ASSIGN_OR_RETURN(
      out->stream, GenerateStream(schema, index, args, label_attr, key_attr));

  const std::string plan_id = "load-" + std::to_string(index);
  SES_RETURN_IF_ERROR((*client)->SubmitPlan(plan_id, out->query));

  std::span<const Event> events(out->stream.events());
  for (size_t offset = 0; offset < events.size();
       offset += static_cast<size_t>(args.batch)) {
    std::span<const Event> slab = events.subspan(
        offset, std::min(static_cast<size_t>(args.batch),
                         events.size() - offset));
    push_ns->push_back(NowNs());
    for (;;) {
      SES_ASSIGN_OR_RETURN(
          bool pushed,
          args.columnar ? (*client)->PushColumnar(
                              ColumnarBatch::FromEvents(schema, slab))
                        : (*client)->Push(slab));
      if (pushed) break;
      ++out->busy_retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.busy_retry_ms));
      push_ns->back() = NowNs();  // the slab is re-sent whole
    }
    out->events_pushed += static_cast<int64_t>(slab.size());
  }
  return Status::OK();
}

void RunClient(int index, const LoadgenArgs& args, ClientResult* out) {
  std::unique_ptr<net::Client> client;
  std::vector<int64_t> push_ns;
  out->status = PushPhase(index, args, out, &client, &push_ns);
  if (out->status.ok()) out->status = client->Flush();
  if (client != nullptr) client->Close();
}

Status Run(const LoadgenArgs& args) {
  std::vector<ClientResult> results(args.clients);

  bench::Harness harness;
  bench::CaseResult result = harness.RunOnce(
      "loadgen/" + std::to_string(args.clients) + "c" +
          (args.columnar ? "/columnar" : "/row"),
      static_cast<int64_t>(args.clients) * args.events,
      [&](bench::CaseRun& run) {
        std::vector<std::thread> threads;
        threads.reserve(args.clients);
        for (int c = 0; c < args.clients; ++c) {
          threads.emplace_back(RunClient, c, std::cref(args), &results[c]);
        }
        for (std::thread& thread : threads) thread.join();

        int64_t matches = 0, busy = 0;
        for (const ClientResult& r : results) {
          matches += static_cast<int64_t>(r.matches.size());
          busy += r.busy_retries;
        }
        run.SetCounter("matches", matches, /*exact=*/true);
        run.SetCounter("busy_retries", busy);
      });

  std::vector<double> latencies;
  for (ClientResult& r : results) {
    if (!r.status.ok()) {
      return Status(r.status.code(),
                    "client failed: " + r.status.message());
    }
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
  }

  std::printf(
      "loadgen: %d client(s) x %ld events in %.3fs — %.0f events/sec, "
      "%lld match(es), %lld busy retr%s\n",
      args.clients, args.events, result.wall_seconds.mean,
      result.events_per_sec,
      static_cast<long long>(result.counter("matches")),
      static_cast<long long>(result.counter("busy_retries")),
      result.counter("busy_retries") == 1 ? "y" : "ies");
  if (!latencies.empty()) {
    std::printf(
        "match latency: p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms "
        "(%zu samples)\n",
        bench::Quantile(latencies, 0.50) / 1e6,
        bench::Quantile(latencies, 0.95) / 1e6,
        bench::Quantile(latencies, 0.99) / 1e6,
        bench::Quantile(latencies, 1.0) / 1e6, latencies.size());
  }

  if (!args.dump_dir.empty()) {
    for (int c = 0; c < args.clients; ++c) {
      ClientResult& r = results[c];
      const std::string base = args.dump_dir + "/client" + std::to_string(c);
      SES_RETURN_IF_ERROR(WriteCsvFile(r.stream, base + ".csv"));
      {
        std::FILE* f = std::fopen((base + ".query").c_str(), "w");
        if (f == nullptr) {
          return Status::IoError("cannot write " + base + ".query");
        }
        std::fprintf(f, "%s\n", r.query.c_str());
        std::fclose(f);
      }
      // The single-pattern `ses_cli --format csv` listing, byte for byte,
      // so tools/server_smoke.sh can diff without normalization.
      SES_ASSIGN_OR_RETURN(Pattern pattern,
                           ParsePattern(r.query, r.stream.schema()));
      SortMatches(&r.matches);
      std::FILE* f = std::fopen((base + ".matches.csv").c_str(), "w");
      if (f == nullptr) {
        return Status::IoError("cannot write " + base + ".matches.csv");
      }
      std::fprintf(f, "match,variable,event,T\n");
      int match_number = 0;
      for (const Match& match : r.matches) {
        ++match_number;
        for (const Binding& binding : match.bindings()) {
          std::fprintf(f, "%d,%s,%lld,%lld\n", match_number,
                       pattern.variable(binding.variable).ToString().c_str(),
                       static_cast<long long>(binding.event.id()),
                       static_cast<long long>(binding.event.timestamp()));
        }
      }
      std::fclose(f);
    }
    std::printf("dumped %d client stream(s) under %s\n", args.clients,
                args.dump_dir.c_str());
  }

  if (!args.json_path.empty()) {
    bench::BenchReport report("loadgen");
    report.Add(std::move(result));
    SES_RETURN_IF_ERROR(report.WriteFile(args.json_path));
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Result<LoadgenArgs> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "ses_loadgen: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  Status status = Run(*args);
  if (!status.ok()) {
    std::fprintf(stderr, "ses_loadgen: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
