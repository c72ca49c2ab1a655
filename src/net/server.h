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
  /// Per-connection ingest queue capacity, in queued requests. A full
  /// queue turns the next PushEvents into a Busy response (backpressure)
  /// instead of unbounded buffering; any other request waits for a slot.
  size_t queue_capacity = 64;
  /// Close a connection when no frame has arrived for this long while its
  /// reader waits for the next one (0 waits without limit).
  int64_t idle_timeout_ms = 60'000;
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
/// never see another connection. Per connection the server runs two
/// threads. The reader frames the socket: it does the handshake, admits
/// PushEvents (answering Ack, Busy or the stream's pending Error), answers
/// protocol errors, and queues every other request. The ingest worker
/// drains a bounded queue (exec::BoundedQueue) and answers SubmitPlan,
/// RemovePlan, PushEvents, Flush and StatsRequest in arrival order; it is
/// the only thread that changes the catalog or calls the engine, so a plan
/// sees exactly the slabs pushed after its SubmitPlan. A slow evaluation
/// never stops the reader from answering, and a full queue becomes an
/// explicit Busy response.
///
/// Every server thread blocks on what it waits for: the accept loop on the
/// listener until Stop(), each reader on its socket until the next frame or
/// the idle deadline, each worker on its queue.
///
/// Flush ends the connection's stream; its next PushEvents starts a new one
/// (timestamps may restart). A connection's plans — with any undelivered
/// matches — are freed as soon as its reader exits: on disconnect, idle
/// expiry, or a malformed frame (a corrupt stream cannot be
/// resynchronized, so the server answers with a typed Error and closes).
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
  /// One queued request for the ingest worker, which answers it after
  /// every request queued before it: a decoded PushEvents slab, a
  /// SubmitPlan or RemovePlan with its payload still encoded, or a Flush
  /// or StatsRequest.
  struct IngestItem {
    PacketType request = PacketType::kPushEvents;
    /// The slab, for kPushEvents.
    PushEventsRequest push;
    /// The request payload, for kSubmitPlan and kRemovePlan.
    std::string payload;
  };

  /// Per-connection state. Thread roles: `reader` owns the socket's read
  /// side and the admission replies; `worker` drains `queue` and alone
  /// touches `catalog`'s plans, `engine` and `pending`. Both write frames
  /// under `write_mu`; `stream_status` is guarded by `status_mu`.
  struct Connection {
    explicit Connection(size_t queue_capacity) : queue(queue_capacity) {}

    Socket sock;
    std::mutex write_mu;
    exec::BoundedQueue<IngestItem> queue;
    /// This connection's plans, registered and removed by the worker in
    /// queue order; the engine picks them up at its next call.
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
    /// Set by the accept loop under `conns_mu_`. A reader that leaves
    /// `conns_` moves it to `exited_`; one whose entry Stop() took keeps it
    /// for Stop() to join.
    std::thread reader;
    std::thread worker;
  };

  explicit Server(ServerOptions options);

  void AcceptLoop();
  /// Joins the readers that have left `conns_`.
  void JoinExited();

  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop(std::shared_ptr<Connection> conn);

  /// Waits for the next frame until the idle deadline and reads it;
  /// FailedPrecondition signals idle expiry.
  Result<Frame> ReadFrameIdle(Connection* conn);

  /// True when the handshake completed, the connection's engine is built,
  /// and the connection may proceed.
  bool Handshake(Connection* conn);
  /// Serves decoded frames until disconnect/error; returns on teardown.
  void ServeLoop(Connection* conn);

  void HandlePushEvents(Connection* conn, const Frame& frame);

  /// Run on the worker, in queue order.
  void HandleSubmitPlan(Connection* conn, std::string_view payload);
  void HandleRemovePlan(Connection* conn, std::string_view payload);
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
  /// The live connections; each reader removes its own on exit.
  std::vector<std::shared_ptr<Connection>> conns_;
  /// Threads of readers that have left `conns_`, for the accept loop (after
  /// each accept) or Stop() to join.
  std::vector<std::thread> exited_;

  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace ses::net

#endif  // SES_NET_SERVER_H_
