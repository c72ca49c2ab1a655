// Loopback integration tests for the network server (src/net/server.h):
// the end-to-end differential — matches delivered over the wire must be
// BYTE-identical (as CheckpointMatch encodings) to a standalone in-process
// CatalogEngine run over the connection's own plan and stream, across
// payload encodings {row, columnar}, client counts {1, 8}, and clients
// sharing one plan id, query and label alphabet — plus per-connection
// stream scope: a Flush ends only its own connection's stream, a new
// stream may follow with restarted timestamps, a backwards timestamp
// fails the stream, and Stats answers in queue order. Plan requests are
// served in queue order too: a plan submitted behind an Acked slab misses
// it, and one removed behind it still delivers its matches. And the
// connection lifecycle: disconnects free plans and pending matches, a
// full ingest queue answers Busy without dropping admitted slabs, a
// connection silent for the idle timeout is torn down, corrupt frames get
// a typed Error and a clean close without hurting other connections,
// Stop() wakes every blocked wait at once, and the Stats packet carries
// field-for-field parity with the in-process engine. Also delivery and
// admission: a finished match arrives before the client flushes, and a
// plan over the automaton state limit gets a typed Error while the
// server keeps serving.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "core/match.h"
#include "event/columnar.h"
#include "event/relation.h"
#include "event/schema.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"

namespace ses {
namespace {

using ::ses::catalog::CatalogEngine;
using ::ses::catalog::CatalogOptions;
using ::ses::catalog::CatalogStats;
using ::ses::catalog::PlanStats;
using ::ses::catalog::QueryCatalog;

Schema TestSchema() {
  Result<Schema> schema = ParseSchemaText("ID INT, L STRING, V DOUBLE");
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return *schema;
}

/// A stream over label alphabet `index`: timestamps 1..events, labels
/// alternating A<index>/B<index>, consecutive pairs sharing an ID join key
/// (0..3, plus `key_offset`) — the shape ses_loadgen generates. Distinct
/// key offsets make two streams over one alphabet produce different match
/// bytes.
EventRelation ClientStream(int index, int events, int64_t key_offset = 0) {
  EventRelation relation(TestSchema());
  const std::string a = "A" + std::to_string(index);
  const std::string b = "B" + std::to_string(index);
  for (int i = 0; i < events; ++i) {
    relation.AppendUnchecked(
        static_cast<Timestamp>(i + 1),
        {Value(key_offset + (i / 2) % 4),
         Value(i % 2 == 0 ? a : b), Value(static_cast<double>(i))});
  }
  return relation;
}

std::string ClientQuery(int index) {
  const std::string c = std::to_string(index);
  return "PATTERN {a} -> {b}\nWHERE a.L = 'A" + c + "' AND b.L = 'B" + c +
         "' AND a.ID = b.ID\nWITHIN 1000s";
}

/// Canonical byte encoding of a match set: SortMatches order, one
/// CheckpointMatch blob per match. Byte equality here is the test's
/// definition of "identical matches".
std::string EncodeMatchSet(std::vector<Match> matches,
                           const Schema& schema) {
  SortMatches(&matches);
  std::string out;
  for (const Match& match : matches) {
    CheckpointMatch(match, schema, &out);
  }
  return out;
}

std::shared_ptr<const plan::CompiledPlan> CompileQuery(
    const std::string& query) {
  Result<Pattern> pattern = ParsePattern(query, TestSchema());
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// The reference: a standalone in-process CatalogEngine running one plan
/// over one connection's stream, as the canonical match-set encoding.
std::string StandaloneReference(const std::string& query,
                                const EventRelation& stream) {
  const Schema schema = TestSchema();
  auto catalog = std::make_shared<QueryCatalog>();
  std::vector<Match> matches;
  CatalogOptions options;
  options.sink = [&](std::string_view, Match&& match) {
    matches.push_back(std::move(match));
  };
  EXPECT_TRUE(catalog->Add("plan", CompileQuery(query)).ok());
  Result<std::unique_ptr<CatalogEngine>> built =
      CatalogEngine::Create(catalog, std::move(options));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(
      (*built)->PushBatch(std::span<const Event>(stream.events())).ok());
  EXPECT_TRUE((*built)->Flush().ok());
  return EncodeMatchSet(std::move(matches), schema);
}

std::unique_ptr<net::Server> StartServer(net::ServerOptions options) {
  options.schema = TestSchema();
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(*server);
}

Result<std::unique_ptr<net::Client>> ConnectClient(uint16_t port,
                                                   int busy_retry_ms = 0) {
  net::ClientOptions options;
  options.port = port;
  options.busy_retry_ms = busy_retry_ms;
  return net::Client::Connect(std::move(options));
}

// --- Differential: server matches == in-process matches, byte for byte ---

/// (columnar, clients, shared): when `shared`, every client submits the
/// same plan id and query over the same labels, and only its join keys
/// differ — so a match delivered to the wrong connection changes the bytes.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<bool, int, bool>> {};

TEST_P(DifferentialTest, WireMatchesEqualInProcessMatches) {
  const auto& [columnar, clients, shared] = GetParam();
  const int events = 400;

  std::unique_ptr<net::Server> server = StartServer({});

  // Concurrent connections, one thread each; every client flushes right
  // after its own pushes, while its neighbors may still be pushing.
  const Schema schema = TestSchema();
  auto label_of = [&](int c) { return shared ? 0 : c; };
  auto stream_of = [&](int c) {
    return ClientStream(label_of(c), events, shared ? 4 * c : 0);
  };
  std::vector<std::unique_ptr<net::Client>> clients_vec(clients);
  std::vector<Status> statuses(clients, Status::OK());
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<std::unique_ptr<net::Client>> client =
          ConnectClient(server->port(), /*busy_retry_ms=*/2);
      if (!client.ok()) {
        statuses[c] = client.status();
        return;
      }
      clients_vec[c] = std::move(*client);
      net::Client& cl = *clients_vec[c];
      const int label = label_of(c);
      Status status = cl.SubmitPlan("plan-" + std::to_string(label),
                                    ClientQuery(label));
      const EventRelation stream = stream_of(c);
      std::span<const Event> all(stream.events());
      for (size_t offset = 0; status.ok() && offset < all.size();
           offset += 64) {
        std::span<const Event> slab =
            all.subspan(offset, std::min<size_t>(64, all.size() - offset));
        Result<bool> ok =
            columnar
                ? cl.PushColumnar(ColumnarBatch::FromEvents(schema, slab))
                : cl.Push(slab);
        if (!ok.ok()) status = ok.status();
      }
      statuses[c] = status.ok() ? cl.Flush() : status;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < clients; ++c) {
    ASSERT_TRUE(statuses[c].ok())
        << "client " << c << ": " << statuses[c].ToString();
  }

  for (int c = 0; c < clients; ++c) {
    const int label = label_of(c);
    const std::string id = "plan-" + std::to_string(label);
    std::map<std::string, std::vector<Match>> got =
        clients_vec[c]->TakeMatches();
    ASSERT_EQ(got.size(), 1u) << "client " << c;
    ASSERT_TRUE(got.contains(id)) << "client " << c;
    EXPECT_FALSE(got[id].empty()) << "client " << c;
    EXPECT_EQ(EncodeMatchSet(std::move(got[id]), schema),
              StandaloneReference(ClientQuery(label), stream_of(c)))
        << "client " << c << " match bytes differ";
    clients_vec[c]->Close();
  }
  server->Stop();
}

/// The "serial_" prefix names what the wire matches equal: the catalog
/// evaluates every plan the way a standalone serial engine does.
std::string DifferentialName(
    const ::testing::TestParamInfo<DifferentialTest::ParamType>& info) {
  return std::string("serial") +
         (std::get<0>(info.param) ? "_columnar" : "_row") + "_" +
         std::to_string(std::get<1>(info.param)) + "c" +
         (std::get<2>(info.param) ? "_shared" : "");
}

INSTANTIATE_TEST_SUITE_P(
    EnginesEncodingsClients, DifferentialTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 8),
                       ::testing::Values(false)),
    DifferentialName);

INSTANTIATE_TEST_SUITE_P(
    SharedPlanIds, DifferentialTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(8),
                       ::testing::Values(true)),
    DifferentialName);

// --- Connection lifecycle ---

TEST(ServerLifecycle, DisconnectFreesPlansAndPendingMatches) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  EXPECT_EQ(server->num_plans(), 1u);

  // Push a stream whose matches are still buffered (no flush), then
  // vanish: the server must release the plan and the undelivered matches.
  const EventRelation stream = ClientStream(0, 100);
  Result<bool> ok = (*client)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  (*client)->Close();

  for (int i = 0; i < 500 && server->num_plans() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_plans(), 0u);
  for (int i = 0; i < 500 && server->num_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_connections(), 0u);

  // The freed plan id is reusable by a new connection.
  Result<std::unique_ptr<net::Client>> next = ConnectClient(server->port());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE((*next)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  (*next)->Close();
  server->Stop();
}

/// An eval_gate that holds the first item evaluated after Arm() until
/// Open(). The hold is bounded, so a server that waits for the held worker
/// fails the test instead of hanging it.
class HoldGate {
 public:
  void Arm() { armed_.store(true); }
  void Enter() {
    if (!armed_.exchange(false)) return;
    held_.release();
    if (!open_.try_acquire_for(std::chrono::seconds(5))) {
      timed_out_.store(true);
    }
  }
  /// Waits until the armed hold has begun; false after 5 s without it.
  bool WaitHeld() { return held_.try_acquire_for(std::chrono::seconds(5)); }
  void Open() { open_.release(); }
  bool timed_out() const { return timed_out_.load(); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> timed_out_{false};
  std::binary_semaphore held_{0};
  std::binary_semaphore open_{0};
};

std::string Describe(const Result<bool>& pushed) {
  if (!pushed.ok()) return pushed.status().ToString();
  return *pushed ? "ok" : "busy";
}

TEST(ServerLifecycle, FullQueueAnswersBusyAndDropsNothing) {
  // Hold the ingest worker at a gate so the 1-slot queue fills: slab 1 is
  // popped and held, slab 2 occupies the queue, slab 3 must be Busy.
  HoldGate gate;
  net::ServerOptions options;
  options.queue_capacity = 1;
  options.eval_gate = [&gate] { gate.Enter(); };
  std::unique_ptr<net::Server> server = StartServer(std::move(options));

  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  const EventRelation stream = ClientStream(0, 60);
  std::span<const Event> all(stream.events());
  gate.Arm();
  Result<bool> first = (*client)->Push(all.subspan(0, 20));
  ASSERT_TRUE(first.ok() && *first) << Describe(first);
  // Slab 2 goes out only once the worker has popped slab 1, so the queue's
  // one slot is free for it; then slab 3 finds the queue full.
  ASSERT_TRUE(gate.WaitHeld()) << "worker never popped slab 1";
  Result<bool> second = (*client)->Push(all.subspan(20, 20));
  ASSERT_TRUE(second.ok() && *second) << Describe(second);
  Result<bool> third = (*client)->Push(all.subspan(40, 20));
  ASSERT_TRUE(third.ok() && !*third) << Describe(third);

  // Release the worker and re-send the rejected slab: nothing admitted was
  // lost, and the retried slab completes the stream.
  gate.Open();
  Result<bool> retried(false);
  for (int i = 0; i < 500; ++i) {
    retried = (*client)->Push(all.subspan(40, 20));
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    if (*retried) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(*retried);
  ASSERT_TRUE((*client)->Flush().ok());
  EXPECT_FALSE(gate.timed_out());

  std::map<std::string, std::vector<Match>> got = (*client)->TakeMatches();
  EXPECT_EQ(EncodeMatchSet(std::move(got["plan-0"]), TestSchema()),
            StandaloneReference(ClientQuery(0), stream));
  (*client)->Close();
  server->Stop();
}

/// Idle means no frame for the timeout while the reader waits for one:
/// frames that come more often keep the connection open for longer than
/// the timeout, and silence past it closes the connection and frees its
/// plan.
TEST(ServerLifecycle, IdleConnectionIsTornDownAfterTheTimeout) {
  net::ServerOptions options;
  options.idle_timeout_ms = 300;
  std::unique_ptr<net::Server> server = StartServer(std::move(options));

  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Result<net::StatsResponse> stats = (*client)->Stats();
    ASSERT_TRUE(stats.ok()) << "frame " << i << ": "
                            << stats.status().ToString();
  }
  EXPECT_EQ(server->num_connections(), 1u);

  const auto quiet = std::chrono::steady_clock::now();
  for (int i = 0; i < 500 && server->num_connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->num_connections(), 0u);
  EXPECT_EQ(server->num_plans(), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - quiet,
            std::chrono::milliseconds(250));
  server->Stop();
}

/// Stop() wakes every blocked wait at once: the accept loop's and that of
/// a reader whose idle deadline is a minute away.
TEST(ServerLifecycle, StopWakesEveryBlockedWait) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  // Let the reader settle into its wait for the next frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  auto start = std::chrono::steady_clock::now();
  server->Stop();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(10))
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
  EXPECT_EQ(server->num_connections(), 0u);
}

TEST(ServerLifecycle, CorruptFrameGetsTypedErrorAndCleanClose) {
  std::unique_ptr<net::Server> server = StartServer({});

  // A healthy connection that must survive its neighbor's corruption.
  Result<std::unique_ptr<net::Client>> healthy =
      ConnectClient(server->port());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_TRUE((*healthy)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  // Handshake by hand, then send a frame with a flipped payload byte.
  Result<net::Socket> sock = net::ConnectTcp(server->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  net::HelloRequest hello;
  ASSERT_TRUE(net::WriteFrame(sock->fd(), net::PacketType::kHello,
                              hello.Encode())
                  .ok());
  Result<net::Frame> ack = net::ReadFrame(sock->fd());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, net::PacketType::kHelloAck);

  net::SubmitPlanRequest submit;
  submit.plan_id = "plan-x";
  submit.query = ClientQuery(1);
  std::string wire;
  net::EncodeFrame(net::PacketType::kSubmitPlan, submit.Encode(), &wire);
  wire[wire.size() / 2] = static_cast<char>(wire[wire.size() / 2] ^ 0x10);
  ASSERT_TRUE(net::WriteAll(sock->fd(), wire).ok());

  Result<net::Frame> reply = net::ReadFrame(sock->fd());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::PacketType::kError);
  Result<net::ErrorResponse> error =
      net::ErrorResponse::Decode(reply->payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kCorruption);
  Result<net::Frame> eof = net::ReadFrame(sock->fd());
  EXPECT_FALSE(eof.ok());  // connection closed after the corrupt frame

  // The poisoned plan was never registered; the healthy connection works.
  EXPECT_EQ(server->num_plans(), 1u);
  const EventRelation stream = ClientStream(0, 40);
  Result<bool> ok =
      (*healthy)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok() && *ok);
  ASSERT_TRUE((*healthy)->Flush().ok());
  EXPECT_FALSE((*healthy)->TakeMatches()["plan-0"].empty());
  (*healthy)->Close();
  server->Stop();
}

// --- Stats parity ---

TEST(ServerStats, WireStatsMatchInProcessFieldForField) {
  const int events = 300;
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  const EventRelation stream = ClientStream(0, events);
  Result<bool> ok = (*client)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok() && *ok);
  ASSERT_TRUE((*client)->Flush().ok());
  Result<net::StatsResponse> wire = (*client)->Stats();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  // The same single-plan run, in process — in the server's lifecycle
  // order (engine over an initially empty catalog, plan added after), so
  // generation-dependent counters agree too.
  const Schema schema = TestSchema();
  auto catalog = std::make_shared<QueryCatalog>();
  CatalogOptions options;
  options.sink = [](std::string_view, Match&&) {};
  Result<std::unique_ptr<CatalogEngine>> engine =
      CatalogEngine::Create(catalog, std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Result<Pattern> pattern = ParsePattern(ClientQuery(0), schema);
  ASSERT_TRUE(pattern.ok());
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog->Add("plan-0", std::move(*plan)).ok());
  ASSERT_TRUE(
      (*engine)->PushBatch(std::span<const Event>(stream.events())).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  const CatalogStats want = (*engine)->stats();
  const std::vector<PlanStats> want_plans = (*engine)->plan_stats();

  EXPECT_EQ(wire->catalog.events_pushed, want.events_pushed);
  EXPECT_EQ(wire->catalog.num_plans, want.num_plans);
  EXPECT_EQ(wire->catalog.generation, want.generation);
  EXPECT_EQ(wire->catalog.snapshot_refreshes, want.snapshot_refreshes);
  EXPECT_EQ(wire->catalog.type_attribute, want.type_attribute);
  EXPECT_EQ(wire->catalog.distinct_conditions, want.distinct_conditions);
  EXPECT_EQ(wire->catalog.plan_conditions, want.plan_conditions);
  EXPECT_EQ(wire->catalog.events_considered, want.events_considered);
  EXPECT_EQ(wire->catalog.events_skipped_by_index,
            want.events_skipped_by_index);
  EXPECT_EQ(wire->catalog.events_skipped_by_prefilter,
            want.events_skipped_by_prefilter);
  EXPECT_EQ(wire->catalog.matches, want.matches);

  ASSERT_EQ(wire->plans.size(), want_plans.size());
  ASSERT_EQ(wire->plans.size(), 1u);
  const PlanStats& got_plan = wire->plans[0];
  const PlanStats& want_plan = want_plans[0];
  EXPECT_EQ(got_plan.id, want_plan.id);
  EXPECT_EQ(got_plan.matches, want_plan.matches);
  EXPECT_EQ(got_plan.events_considered, want_plan.events_considered);
  EXPECT_EQ(got_plan.events_skipped_by_index,
            want_plan.events_skipped_by_index);
  EXPECT_EQ(got_plan.events_skipped_by_prefilter,
            want_plan.events_skipped_by_prefilter);
  EXPECT_EQ(got_plan.executor.events_seen, want_plan.executor.events_seen);
  EXPECT_EQ(got_plan.executor.events_filtered,
            want_plan.executor.events_filtered);
  EXPECT_EQ(got_plan.executor.events_processed,
            want_plan.executor.events_processed);
  EXPECT_EQ(got_plan.executor.instances_created,
            want_plan.executor.instances_created);
  EXPECT_EQ(got_plan.executor.instances_expired,
            want_plan.executor.instances_expired);
  EXPECT_EQ(got_plan.executor.max_simultaneous_instances,
            want_plan.executor.max_simultaneous_instances);
  EXPECT_EQ(got_plan.executor.transitions_evaluated,
            want_plan.executor.transitions_evaluated);
  EXPECT_EQ(got_plan.executor.transitions_fired,
            want_plan.executor.transitions_fired);
  EXPECT_EQ(got_plan.executor.conditions_evaluated,
            want_plan.executor.conditions_evaluated);
  EXPECT_EQ(got_plan.executor.matches_emitted,
            want_plan.executor.matches_emitted);
  EXPECT_GT(got_plan.executor.events_seen, 0);

  (*client)->Close();
  server->Stop();
}

// --- Flush scope: each connection is its own stream ---

TEST(ServerFlush, FlushEndsOnlyItsConnectionsStream) {
  HoldGate gate;
  net::ServerOptions options;
  options.eval_gate = [&gate] { gate.Enter(); };
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  Result<std::unique_ptr<net::Client>> a = ConnectClient(server->port());
  Result<std::unique_ptr<net::Client>> b = ConnectClient(server->port());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->SubmitPlan("plan-0", ClientQuery(0)).ok());
  ASSERT_TRUE((*b)->SubmitPlan("plan-1", ClientQuery(1)).ok());

  // B is mid-stream: its first slab is Acked but held at the gate, and a
  // StatsRequest waits behind it (on a helper thread, since the answer
  // comes only once the slab is evaluated).
  const Schema schema = TestSchema();
  const EventRelation stream_b = ClientStream(1, 80);
  std::span<const Event> all_b(stream_b.events());
  gate.Arm();
  Result<bool> held = (*b)->Push(all_b.subspan(0, 40));
  ASSERT_TRUE(held.ok() && *held) << Describe(held);
  ASSERT_TRUE(gate.WaitHeld());
  Result<net::StatsResponse> stats_b = Status::Internal("not answered");
  std::thread stats_thread([&] { stats_b = (*b)->Stats(); });

  // (a) A runs three push -> Flush cycles, timestamps restarting at 1; each
  // cycle equals a standalone run. Checks stay non-fatal so that every case
  // reports.
  for (int cycle = 0; cycle < 3; ++cycle) {
    const EventRelation stream = ClientStream(0, 40 + 30 * cycle);
    Result<bool> pushed = (*a)->Push(std::span<const Event>(stream.events()));
    EXPECT_TRUE(pushed.ok() && *pushed)
        << "cycle " << cycle << ": " << Describe(pushed);
    const Status flushed = (*a)->Flush();
    EXPECT_TRUE(flushed.ok())
        << "cycle " << cycle << ": " << flushed.ToString();
    EXPECT_EQ(EncodeMatchSet(std::move((*a)->TakeMatches()["plan-0"]), schema),
              StandaloneReference(ClientQuery(0), stream))
        << "cycle " << cycle;
  }
  // Until the next push, Stats still reports the finished stream.
  Result<net::StatsResponse> stats_a = (*a)->Stats();
  ASSERT_TRUE(stats_a.ok()) << stats_a.status().ToString();
  EXPECT_EQ(stats_a->catalog.events_pushed, 100);

  // (b) A's flushes never waited for B's held slab, and B's stream goes on
  // to equal its standalone run.
  EXPECT_FALSE(gate.timed_out()) << "a flush waited for another connection";
  gate.Open();
  stats_thread.join();
  Result<bool> rest = (*b)->Push(all_b.subspan(40));
  EXPECT_TRUE(rest.ok() && *rest) << Describe(rest);
  const Status flushed_b = (*b)->Flush();
  EXPECT_TRUE(flushed_b.ok()) << flushed_b.ToString();
  EXPECT_EQ(EncodeMatchSet(std::move((*b)->TakeMatches()["plan-1"]), schema),
            StandaloneReference(ClientQuery(1), stream_b));

  // (c) The StatsRequest sent after B's Acked slab counts that slab.
  ASSERT_TRUE(stats_b.ok()) << stats_b.status().ToString();
  EXPECT_EQ(stats_b->catalog.events_pushed, 40);

  (*a)->Close();
  (*b)->Close();
  server->Stop();
}

TEST(ServerFlush, FailedStreamEndsAtFlushAndTheNextStartsClean) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  // The same timestamps twice without a Flush go back in time: the second
  // slab is Acked at admission, then fails evaluation.
  const EventRelation stream = ClientStream(0, 40);
  std::span<const Event> events(stream.events());
  Result<bool> first = (*client)->Push(events);
  ASSERT_TRUE(first.ok() && *first) << Describe(first);
  Result<bool> second = (*client)->Push(events);
  ASSERT_TRUE(second.ok() && *second) << Describe(second);
  // The Flush reports the error and ends the failed stream.
  const Status failed = (*client)->Flush();
  EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << failed.ToString();
  (*client)->TakeMatches();

  // The next stream starts clean and equals a standalone run.
  Result<bool> again = (*client)->Push(events);
  ASSERT_TRUE(again.ok() && *again) << Describe(again);
  ASSERT_TRUE((*client)->Flush().ok());
  std::map<std::string, std::vector<Match>> got = (*client)->TakeMatches();
  EXPECT_EQ(EncodeMatchSet(std::move(got["plan-0"]), TestSchema()),
            StandaloneReference(ClientQuery(0), stream));
  (*client)->Close();
  server->Stop();
}

/// A, then B, then an A two seconds before the B, all of one key: the
/// third event goes back in time. The A-only plan never sees the B (the
/// type index routes it away), yet the stream still fails: it is one
/// ordered stream. Row and columnar slabs alike, the error surfaces at the
/// connection's Flush, and the next stream starts clean.
TEST(ServerFlush, BackwardsTimestampFailsTheStreamAtFlush) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)
                  ->SubmitPlan("aa",
                               "PATTERN {a} -> {x} WHERE a.L = 'A' AND "
                               "x.L = 'A' AND a.ID = x.ID WITHIN 10s")
                  .ok());
  const Schema schema = TestSchema();
  EventRelation relation(schema);
  relation.AppendUnchecked(1, {Value(int64_t{7}), Value("A"), Value(0.0)});
  relation.AppendUnchecked(5, {Value(int64_t{7}), Value("B"), Value(1.0)});
  relation.AppendUnchecked(3, {Value(int64_t{7}), Value("A"), Value(2.0)});
  std::span<const Event> events(relation.events());
  for (bool columnar : {false, true}) {
    Result<bool> ok =
        columnar ? (*client)->PushColumnar(
                       ColumnarBatch::FromEvents(schema, events))
                 : (*client)->Push(events);
    ASSERT_TRUE(ok.ok() && *ok) << Describe(ok);
    const Status flushed = (*client)->Flush();
    EXPECT_EQ(flushed.code(), StatusCode::kInvalidArgument)
        << (columnar ? "columnar" : "row") << ": " << flushed.ToString();
    EXPECT_TRUE((*client)->TakeMatches()["aa"].empty());
  }
  (*client)->Close();
  server->Stop();
}

// --- Arrival order: plan requests queue behind Acked slabs ---

/// A hand-driven connection that sends requests without waiting for their
/// answers, which net::Client never does: a test can queue a request
/// behind a slab held at the gate. MatchBatch frames are collected per
/// plan.
class PipelinedConnection {
 public:
  /// Connects and completes the handshake.
  Status Open(uint16_t port) {
    SES_ASSIGN_OR_RETURN(sock_, net::ConnectTcp(port));
    SES_RETURN_IF_ERROR(
        Send(net::PacketType::kHello, net::HelloRequest{}.Encode()));
    SES_ASSIGN_OR_RETURN(net::Frame ack, net::ReadFrame(sock_.fd()));
    if (ack.type != net::PacketType::kHelloAck) {
      return Status::Internal("no HelloAck");
    }
    return Status::OK();
  }

  Status SubmitPlan(const std::string& id, const std::string& query) {
    net::SubmitPlanRequest req;
    req.plan_id = id;
    req.query = query;
    return Send(net::PacketType::kSubmitPlan, req.Encode());
  }

  Status RemovePlan(const std::string& id) {
    net::RemovePlanRequest req;
    req.plan_id = id;
    return Send(net::PacketType::kRemovePlan, req.Encode());
  }

  Status Push(std::span<const Event> events) {
    return Send(net::PacketType::kPushEvents,
                net::PushEventsRequest::EncodeRows(events, TestSchema()));
  }

  Status Flush() { return Send(net::PacketType::kFlush, ""); }

  /// Reads up to the next answer and names the request it acknowledges, or
  /// describes the answer when it is not an Ack.
  std::string NextAnswer() {
    for (;;) {
      Result<net::Frame> frame = net::ReadFrame(sock_.fd());
      if (!frame.ok()) return frame.status().ToString();
      if (frame->type == net::PacketType::kMatchBatch) {
        Result<net::MatchBatchResponse> batch =
            net::MatchBatchResponse::Decode(frame->payload, TestSchema());
        if (!batch.ok()) return batch.status().ToString();
        for (Match& match : batch->matches) {
          matches[batch->plan_id].push_back(std::move(match));
        }
        continue;
      }
      if (frame->type != net::PacketType::kAck) {
        return std::string(net::PacketTypeName(frame->type));
      }
      Result<net::AckResponse> ack = net::AckResponse::Decode(frame->payload);
      if (!ack.ok()) return ack.status().ToString();
      return std::string(net::PacketTypeName(ack->request));
    }
  }

  std::map<std::string, std::vector<Match>> matches;

 private:
  Status Send(net::PacketType type, std::string_view payload) {
    return net::WriteFrame(sock_.fd(), type, payload);
  }

  net::Socket sock_;
};

/// Sends `request` while slab 1 (the first half of `stream`) is Acked and
/// held at the gate, then slab 2 and a Flush, and returns the matches the
/// connection received. Slab 2's admission Ack shows that the reader read
/// `request` first; only then does the worker go on.
std::map<std::string, std::vector<Match>> RunBehindAHeldSlab(
    const std::string& first_plan, const std::string& first_query,
    const std::function<Status(PipelinedConnection&)>& request,
    std::span<const Event> stream) {
  HoldGate gate;
  net::ServerOptions options;
  options.eval_gate = [&gate] { gate.Enter(); };
  std::unique_ptr<net::Server> server = StartServer(std::move(options));
  PipelinedConnection conn;
  EXPECT_TRUE(conn.Open(server->port()).ok());
  EXPECT_TRUE(conn.SubmitPlan(first_plan, first_query).ok());
  EXPECT_EQ(conn.NextAnswer(), "SubmitPlan");

  const size_t half = stream.size() / 2;
  gate.Arm();
  EXPECT_TRUE(conn.Push(stream.first(half)).ok());
  EXPECT_EQ(conn.NextAnswer(), "PushEvents");
  EXPECT_TRUE(gate.WaitHeld()) << "worker never popped slab 1";
  EXPECT_TRUE(request(conn).ok());
  EXPECT_TRUE(conn.Push(stream.subspan(half)).ok());
  std::vector<std::string> answers;
  while (answers.size() < 4 &&
         (answers.empty() || answers.back() != "PushEvents")) {
    answers.push_back(conn.NextAnswer());
  }
  gate.Open();
  EXPECT_TRUE(conn.Flush().ok());
  while (answers.size() < 4 && answers.back() != "Flush") {
    answers.push_back(conn.NextAnswer());
  }
  // The plan request is answered by the worker after slab 1, so after the
  // reader's admission Ack of slab 2.
  EXPECT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers.front(), "PushEvents");
  EXPECT_EQ(answers.back(), "Flush");
  EXPECT_FALSE(gate.timed_out());
  server->Stop();
  return std::move(conn.matches);
}

/// The in-process reference for RunBehindAHeldSlab: one CatalogEngine that
/// registers `first_plan`, evaluates the first half of `stream`, applies
/// `between` to its catalog, then evaluates the rest and flushes.
std::map<std::string, std::vector<Match>> ReferenceAroundTheSlab(
    const std::string& first_plan, const std::string& first_query,
    const std::function<Status(QueryCatalog&)>& between,
    std::span<const Event> stream) {
  auto catalog = std::make_shared<QueryCatalog>();
  std::map<std::string, std::vector<Match>> matches;
  CatalogOptions options;
  options.sink = [&](std::string_view plan_id, Match&& match) {
    matches[std::string(plan_id)].push_back(std::move(match));
  };
  Result<std::unique_ptr<CatalogEngine>> engine =
      CatalogEngine::Create(catalog, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  const size_t half = stream.size() / 2;
  EXPECT_TRUE(catalog->Add(first_plan, CompileQuery(first_query)).ok());
  EXPECT_TRUE((*engine)->PushBatch(stream.first(half)).ok());
  EXPECT_TRUE(between(*catalog).ok());
  EXPECT_TRUE((*engine)->PushBatch(stream.subspan(half)).ok());
  EXPECT_TRUE((*engine)->Flush().ok());
  return matches;
}

/// A plan submitted while an Acked slab is held sees only the later slab,
/// as on an in-process catalog that adds it between the two slabs.
TEST(ServerOrder, PlanSubmittedBehindAHeldSlabSeesOnlyLaterSlabs) {
  const EventRelation stream = ClientStream(0, 40);
  std::span<const Event> all(stream.events());
  std::map<std::string, std::vector<Match>> got = RunBehindAHeldSlab(
      "early", ClientQuery(0),
      [](PipelinedConnection& conn) {
        return conn.SubmitPlan("late", ClientQuery(0));
      },
      all);
  std::map<std::string, std::vector<Match>> want = ReferenceAroundTheSlab(
      "early", ClientQuery(0),
      [](QueryCatalog& catalog) {
        return catalog.Add("late", CompileQuery(ClientQuery(0)));
      },
      all);
  ASSERT_EQ(want["early"].size(), 20u);
  ASSERT_EQ(want["late"].size(), 10u);

  const Schema schema = TestSchema();
  EXPECT_EQ(got["late"].size(), 10u);
  for (const std::string id : {"early", "late"}) {
    EXPECT_EQ(EncodeMatchSet(std::move(got[id]), schema),
              EncodeMatchSet(std::move(want[id]), schema))
        << id;
  }
}

/// A plan removed while an Acked slab is held still delivers the matches
/// that slab finishes, as on an in-process catalog that removes it between
/// the two slabs. Its short window lets slab 1 finish matches.
TEST(ServerOrder, PlanRemovedBehindAHeldSlabStillDeliversIt) {
  const std::string query =
      "PATTERN {a} -> {b} WHERE a.L = 'A0' AND b.L = 'B0' AND a.ID = b.ID "
      "WITHIN 3s";
  const EventRelation stream = ClientStream(0, 40);
  std::span<const Event> all(stream.events());
  std::map<std::string, std::vector<Match>> got = RunBehindAHeldSlab(
      "gone", query,
      [](PipelinedConnection& conn) { return conn.RemovePlan("gone"); },
      all);
  std::map<std::string, std::vector<Match>> want = ReferenceAroundTheSlab(
      "gone", query,
      [](QueryCatalog& catalog) { return catalog.Remove("gone"); }, all);
  ASSERT_FALSE(want["gone"].empty());

  EXPECT_EQ(got["gone"].size(), want["gone"].size());
  EXPECT_EQ(EncodeMatchSet(std::move(got["gone"]), TestSchema()),
            EncodeMatchSet(std::move(want["gone"]), TestSchema()));
}

/// A finished match reaches the client before it sends Flush, even when no
/// later event is routed to its plan: A and B of one key, then C events
/// far past the window, which the type index routes to no plan. Stats is
/// served after every slab pushed before it, so the MatchBatch written for
/// those slabs has arrived by the time Stats answers.
TEST(ServerDelivery, FinishedMatchArrivesBeforeFlush) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> client = ConnectClient(server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)
                  ->SubmitPlan("ab",
                               "PATTERN {a} -> {x} WHERE a.L = 'A' AND "
                               "x.L = 'B' AND a.ID = x.ID WITHIN 1h")
                  .ok());
  const Schema schema = TestSchema();
  EventRelation relation(schema);
  relation.AppendUnchecked(0, {Value(int64_t{7}), Value("A"), Value(0.0)});
  relation.AppendUnchecked(duration::Minutes(10),
                           {Value(int64_t{7}), Value("B"), Value(1.0)});
  for (int i = 1; i <= 1000; ++i) {
    relation.AppendUnchecked(duration::Minutes(10) + duration::Minutes(6) * i,
                             {Value(int64_t{7}), Value("C"),
                              Value(static_cast<double>(i))});
  }
  std::span<const Event> events(relation.events());
  for (bool columnar : {false, true}) {
    for (size_t offset = 0; offset < events.size(); offset += 64) {
      std::span<const Event> slab = events.subspan(
          offset, std::min<size_t>(64, events.size() - offset));
      Result<bool> ok =
          columnar ? (*client)->PushColumnar(
                         ColumnarBatch::FromEvents(schema, slab))
                   : (*client)->Push(slab);
      ASSERT_TRUE(ok.ok() && *ok) << Describe(ok);
    }
    ASSERT_TRUE((*client)->Stats().ok());
    EXPECT_EQ((*client)->TakeMatches()["ab"].size(), 1u)
        << (columnar ? "columnar" : "row") << ": the match waited for Flush";
    ASSERT_TRUE((*client)->Flush().ok());
    EXPECT_TRUE((*client)->TakeMatches()["ab"].empty())
        << (columnar ? "columnar" : "row");
  }
  (*client)->Close();
  server->Stop();
}

/// `{v1, ..., vn} -> {b}` with one label per variable: Σ 2^|Vi| automaton
/// states is 2^n + 2.
std::string WideQuery(int n) {
  std::string vars;
  std::string conditions;
  for (int i = 1; i <= n; ++i) {
    const std::string index = std::to_string(i);
    if (i > 1) vars += ", ";
    vars += "v";
    vars += index;
    conditions += "v";
    conditions += index;
    conditions += ".L = 'W";
    conditions += index;
    conditions += "' AND ";
  }
  return "PATTERN {" + vars + "} -> {b} WHERE " + conditions +
         "b.L = 'B' WITHIN 1h";
}

/// A plan whose automaton is over the state limit is refused from its
/// shape with a typed Error before anything is built: the connection
/// stays usable, and another connection's stream is unaffected.
TEST(ServerAdmission, WidePlanIsRefusedAndTheServerKeepsServing) {
  std::unique_ptr<net::Server> server = StartServer({});
  Result<std::unique_ptr<net::Client>> first = ConnectClient(server->port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<std::unique_ptr<net::Client>> second = ConnectClient(server->port());
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // 16 variables in one event set: 2^16 + 2 states, just over the limit.
  const Status wide = (*first)->SubmitPlan("wide", WideQuery(16));
  EXPECT_EQ(wide.code(), StatusCode::kInvalidArgument) << wide.ToString();
  EXPECT_NE(wide.message().find("plan 'wide'"), std::string::npos)
      << wide.ToString();
  EXPECT_NE(wide.message().find("65538 states"), std::string::npos)
      << wide.ToString();
  EXPECT_TRUE((*first)->SubmitPlan("plan-0", ClientQuery(0)).ok());

  ASSERT_TRUE((*second)->SubmitPlan("plan-1", ClientQuery(1)).ok());
  const EventRelation stream = ClientStream(1, 400);
  Result<bool> ok = (*second)->Push(std::span<const Event>(stream.events()));
  ASSERT_TRUE(ok.ok() && *ok) << Describe(ok);
  ASSERT_TRUE((*second)->Flush().ok());
  std::map<std::string, std::vector<Match>> got = (*second)->TakeMatches();
  EXPECT_FALSE(got["plan-1"].empty());
  EXPECT_EQ(EncodeMatchSet(std::move(got["plan-1"]), TestSchema()),
            StandaloneReference(ClientQuery(1), stream));
  (*first)->Close();
  (*second)->Close();
  server->Stop();
}

}  // namespace
}  // namespace ses
