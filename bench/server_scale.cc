// Server connection-scale sweep: how the network server behaves as the
// number of concurrent client connections grows. For each client count N
// in {1, 8, 64, 256} an in-process net::Server (one catalog per
// connection, loopback TCP) serves N connections, each submitting one plan
// over a client-namespaced label alphabet, pushing a fixed per-client
// stream and flushing it — so total offered load grows with N while every
// client's match set stays that of a standalone single-pattern run (the
// ses_loadgen workload shape, docs/SERVER.md).
//
// Reported per N: wall time, aggregate events/sec through the wire, the
// exact total match count (gated by the committed baseline —
// bench/baselines/BENCH_server.json — in the perf-smoke CI job), and the
// slowest client connect (TCP connect plus Hello/HelloAck) over the timed
// runs, an ungated counter in which an accept-loop or listen-backlog
// regression shows directly. Every repetition starts a fresh server, so
// repetitions stay independent.
//
// Caveat for absolute numbers: clients, server readers, and ingest
// workers all share the machine; on a single-core CI runner the sweep
// measures protocol + scheduling overhead, not parallel speedup (see
// EXPERIMENTS.md, "Server connection scale").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "event/relation.h"
#include "event/schema.h"
#include "net/client.h"
#include "net/server.h"

namespace {

using namespace ses;
using namespace ses::bench;

Schema ServedSchema() {
  Result<Schema> schema = ParseSchemaText("ID INT, L STRING, V DOUBLE");
  SES_CHECK(schema.ok()) << schema.status().ToString();
  return *schema;
}

/// The stream of client `index`: labels alternating A<index>/B<index>,
/// consecutive pairs joined on ID — the ses_loadgen shape.
EventRelation ClientStream(int index, int64_t events) {
  EventRelation relation(ServedSchema());
  std::string a = "A";
  a += std::to_string(index);
  std::string b = "B";
  b += std::to_string(index);
  for (int64_t i = 0; i < events; ++i) {
    relation.AppendUnchecked(
        static_cast<Timestamp>(i + 1),
        {Value((i / 2) % 8), Value(i % 2 == 0 ? a : b),
         Value(static_cast<double>(i))});
  }
  return relation;
}

std::string ClientQuery(int index) {
  const std::string c = std::to_string(index);
  return "PATTERN {a} -> {b}\nWHERE a.L = 'A" + c + "' AND b.L = 'B" + c +
         "' AND a.ID = b.ID\nWITHIN 1000s";
}

/// What one load delivered and how long its slowest connect took.
struct LoadResult {
  int64_t matches = 0;
  int64_t max_connect_us = 0;
};

/// One full load: fresh server, N concurrent clients, each flushing its
/// own stream once pushed.
LoadResult RunLoad(int clients, int64_t events_per_client, int64_t batch) {
  net::ServerOptions options;
  options.schema = ServedSchema();
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(std::move(options));
  SES_CHECK(server.ok()) << server.status().ToString();

  std::vector<EventRelation> streams;
  streams.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    streams.push_back(ClientStream(c, events_per_client));
  }

  std::atomic<int64_t> matches{0};
  std::atomic<int64_t> max_connect_us{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions client_options;
      client_options.port = (*server)->port();
      client_options.client_name = "scale-" + std::to_string(c);
      client_options.busy_retry_ms = 2;
      int64_t local = 0;
      client_options.match_sink =
          [&local](const net::MatchBatchResponse& batch_frame) {
            local += static_cast<int64_t>(batch_frame.matches.size());
          };
      const auto connect_start = std::chrono::steady_clock::now();
      Result<std::unique_ptr<net::Client>> client =
          net::Client::Connect(std::move(client_options));
      SES_CHECK(client.ok()) << client.status().ToString();
      const int64_t connect_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - connect_start)
              .count();
      int64_t seen = max_connect_us.load();
      while (connect_us > seen &&
             !max_connect_us.compare_exchange_weak(seen, connect_us)) {
      }
      SES_CHECK(
          (*client)->SubmitPlan("scale-" + std::to_string(c), ClientQuery(c))
              .ok());
      std::span<const Event> all(streams[c].events());
      for (size_t offset = 0; offset < all.size();
           offset += static_cast<size_t>(batch)) {
        std::span<const Event> slab = all.subspan(
            offset,
            std::min(static_cast<size_t>(batch), all.size() - offset));
        Result<bool> ok = (*client)->Push(slab);
        SES_CHECK(ok.ok() && *ok) << ok.status().ToString();
      }
      SES_CHECK((*client)->Flush().ok());
      matches.fetch_add(local);
      (*client)->Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  (*server)->Stop();
  return {matches.load(), max_connect_us.load()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const int64_t events_per_client =
      args.full ? 5000 : static_cast<int64_t>(ScaleEvents(args, 2000));
  const int64_t batch = 256;
  // Smoke keeps the full client sweep (the committed baseline gates every
  // case); the reduced per-client stream bounds the N = 256 row's cost.
  const std::vector<int> client_counts = {1, 8, 64, 256};

  Harness harness(DefaultHarnessOptions(args));
  BenchReport report("server");

  std::printf("%-10s %12s %18s %14s %10s\n", "clients", "wall [s]",
              "max connect [ms]", "events/s", "matches");
  for (int clients : client_counts) {
    int64_t matches = 0;
    int64_t max_connect_us = 0;
    CaseResult result = harness.Run(
        "clients" + std::to_string(clients),
        static_cast<int64_t>(clients) * events_per_client,
        [&](CaseRun& run) {
          const LoadResult load = RunLoad(clients, events_per_client, batch);
          matches = load.matches;
          run.SetCounter("matches", matches, /*exact=*/true);
          if (!run.warmup()) {
            max_connect_us = std::max(max_connect_us, load.max_connect_us);
          }
          run.SetCounter("max_connect_us", max_connect_us);
        });
    std::printf("%-10d %12.4f %18.3f %14.0f %10lld\n", clients,
                result.wall_seconds.mean, max_connect_us / 1e3,
                result.events_per_sec, static_cast<long long>(matches));
    report.Add(std::move(result));
  }
  std::printf(
      "\nEach client's match set equals a standalone single-pattern run "
      "over its own stream; wall time covers connect, handshake, "
      "framed ingest, evaluation, and match delivery. Single-machine "
      "loopback: clients and server share cores.\n");
  MaybeWriteReport(args, report);
  return 0;
}
