#ifndef SES_NET_SERVER_H_
#define SES_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog_engine.h"
#include "catalog/query_catalog.h"
#include "common/result.h"
#include "event/schema.h"
#include "exec/batch_queue.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace ses::net {

/// Runtime knobs of a Server, fixed at Start.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (Server::port()
  /// reports the choice — the test-suite default).
  uint16_t port = 0;
  /// The stream schema every connection's plans and events encode against;
  /// announced in the HelloAck.
  Schema schema;
  /// Per-connection ingest queue capacity, in PushEvents slabs. A full
  /// queue turns the next PushEvents into a Busy response (backpressure)
  /// instead of unbounded buffering.
  size_t queue_capacity = 64;
  /// Close a connection that has sent nothing for this long (0 disables).
  /// Measured on `clock_ms`, so tests can drive it with a fake clock.
  int64_t idle_timeout_ms = 60'000;
  /// Millisecond clock for idle-timeout decisions; defaults to the steady
  /// clock. Tests inject a fake clock to expire idle connections
  /// deterministically (real sockets stay untouched).
  std::function<int64_t()> clock_ms;
  /// Test hook: when set, the ingest worker calls it before evaluating
  /// each queued item. Lets tests hold a worker mid-drain to fill the
  /// bounded queue and observe Busy deterministically.
  std::function<void()> eval_gate;
};

/// A long-running loopback TCP server evaluating standing queries over
/// client-pushed event streams: the network face of the multi-pattern
/// catalog runtime (docs/SERVER.md is the ops guide, net/protocol.h the
/// wire contract).
///
/// Every connection is its own stream: it gets a private
/// catalog::QueryCatalog and catalog::CatalogEngine built from the
/// ServerOptions, so its plan ids, timestamp ordering, Flush and Stats
/// never see another connection. Per connection the server runs
/// two threads: a reader that speaks the protocol (handshake first, then
/// request dispatch) and answers SubmitPlan/RemovePlan itself, and an
/// ingest worker — the only thread that calls the engine — serving
/// PushEvents, Flush and StatsRequest from a bounded queue
/// (exec::BoundedQueue) in arrival order. A slow evaluation never stops the
/// reader from answering, and a full queue becomes an explicit Busy
/// response.
///
/// Flush ends the connection's stream; its next PushEvents starts a new one
/// (timestamps may restart). A connection's plans — with any undelivered
/// matches — are freed when it disconnects, times out idle, or sends a
/// malformed frame (a corrupt stream cannot be resynchronized, so the
/// server answers with a typed Error and closes).
class Server {
 public:
  /// Validates the options (schema non-empty), binds the listening socket,
  /// and starts the accept loop.
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral choice when options.port was 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every connection, and joins all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Currently live connections (monitoring and tests).
  size_t num_connections() const;

  /// Currently registered plans across all live connections.
  size_t num_plans() const;

 private:
  /// One queued request for the ingest worker: a decoded PushEvents slab,
  /// or a Flush or StatsRequest, which the worker answers itself — so each
  /// answer covers every slab queued before it.
  struct IngestItem {
    PacketType request = PacketType::kPushEvents;
    /// The slab, for kPushEvents.
    PushEventsRequest push;
  };

  /// Per-connection state. Thread roles: `reader` owns the socket's read
  /// side and the synchronous replies; `worker` drains `queue` and alone
  /// touches `engine` and `pending`. Both write frames under `write_mu`;
  /// `stream_status` is guarded by `status_mu`.
  struct Connection {
    explicit Connection(size_t queue_capacity) : queue(queue_capacity) {}

    Socket sock;
    std::mutex write_mu;
    exec::BoundedQueue<IngestItem> queue;
    /// Reader finished (including worker join); the accept loop reaps it.
    std::atomic<bool> done{false};
    /// This connection's plans: the reader registers them, the engine
    /// picks them up at its next batch boundary (QueryCatalog is
    /// thread-safe).
    std::shared_ptr<catalog::QueryCatalog> catalog =
        std::make_shared<catalog::QueryCatalog>();
    /// Built at the handshake, released at teardown.
    std::unique_ptr<catalog::CatalogEngine> engine;
    /// Matches the engine produced during its current call, per plan; the
    /// worker writes them out right after the call returns.
    std::map<std::string, std::vector<Match>> pending;
    std::mutex status_mu;
    /// First asynchronous evaluation error of the current stream; surfaced
    /// as the Error reply to the connection's next PushEvents or Flush
    /// (admission Acks mean push errors are detected after the Ack).
    Status stream_status;
    /// Client-announced name, for log lines.
    std::string name;
    /// When the last frame arrived (options_.clock_ms), set at accept and
    /// on every received frame. Owned by the reader thread (the accept
    /// loop's initial store happens-before the thread starts); the idle
    /// timeout measures from here, NOT from when the reader resumes
    /// waiting — so a fake clock advanced while the reader is between
    /// frames still expires the connection.
    int64_t last_activity_ms = 0;
    std::thread reader;
    std::thread worker;
  };

  explicit Server(ServerOptions options);

  int64_t NowMs() const;

  void AcceptLoop();
  void ReapFinished();

  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop(std::shared_ptr<Connection> conn);

  /// Reads the next frame, polling in short slices so stop and the idle
  /// deadline are observed; FailedPrecondition signals idle expiry.
  Result<Frame> ReadFrameIdle(Connection* conn);

  /// True when the handshake completed, the connection's engine is built,
  /// and the connection may proceed.
  bool Handshake(Connection* conn);
  /// Serves decoded frames until disconnect/error; returns on teardown.
  void ServeLoop(Connection* conn);

  void HandleSubmitPlan(Connection* conn, const Frame& frame);
  void HandleRemovePlan(Connection* conn, const Frame& frame);
  void HandlePushEvents(Connection* conn, const Frame& frame);

  /// Run on the worker, in queue order.
  void HandleStats(Connection* conn);

  /// Writes the engine's pending matches as MatchBatch frames, coalesced
  /// into one write (write errors are the reader's problem to notice), and
  /// clears them. A plan whose matches exceed one frame spans several. A
  /// match too large for any frame is not sent, nor are the matches of its
  /// plan after it; the returned InvalidArgument names the plan.
  Status DeliverPending(Connection* conn);

  Status SendFrame(Connection* conn, PacketType type,
                   std::string_view payload);
  void SendAck(Connection* conn, PacketType request, std::string_view info);
  void SendError(Connection* conn, const Status& status);
  void SendBusy(Connection* conn);

  ServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace ses::net

#endif  // SES_NET_SERVER_H_
