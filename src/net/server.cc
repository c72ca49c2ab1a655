#include "net/server.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"

namespace ses::net {

namespace {

/// Bound on a single stalled socket read (a peer that stops mid-frame) and
/// on a single blocked write (a peer that stops draining matches).
constexpr int kReadTimeoutMs = 10'000;
constexpr int kWriteTimeoutMs = 10'000;

/// A frame's bytes besides its payload: length prefix, type byte, crc.
constexpr size_t kFrameOverhead = 4 + 1 + 4;

/// The largest MatchBatch payload one frame carries (kMaxFrameBody counts
/// the type byte and crc too).
constexpr size_t kMaxMatchPayload = kMaxFrameBody - 1 - 4;

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  if (options.schema.num_attributes() == 0) {
    return Status::InvalidArgument("server needs a non-empty stream schema");
  }

  std::unique_ptr<Server> server(new Server(std::move(options)));
  SES_ASSIGN_OR_RETURN(server->listener_,
                       ListenTcp(server->options_.port, &server->port_));
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stop_.exchange(true)) return;
  // Wake the accept loop's poll (shutdown(2) on a listening socket reports
  // POLLHUP).
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Wake every reader blocked in poll/recv; readers tear down their own
  // worker, stream, and queue on the way out.
  for (const auto& conn : conns) conn->sock.ShutdownBoth();
  for (const auto& conn : conns) conn->reader.join();
  JoinExited();
  listener_.Reset();
}

size_t Server::num_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

size_t Server::num_plans() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  size_t plans = 0;
  for (const auto& conn : conns_) plans += conn->catalog->size();
  return plans;
}

void Server::AcceptLoop() {
  for (;;) {
    Result<bool> readable = WaitReadable(listener_.fd(), -1);
    if (!readable.ok() || stop_.load()) break;
    Result<Socket> sock = Accept(listener_);
    if (sock.ok()) {
      auto conn = std::make_shared<Connection>(options_.queue_capacity);
      conn->sock = std::move(*sock);
      SetRecvTimeout(conn->sock.fd(), kReadTimeoutMs).ok();
      SetSendTimeout(conn->sock.fd(), kWriteTimeoutMs).ok();
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->reader = std::thread(&Server::ReaderLoop, this, conn);
      conns_.push_back(std::move(conn));
    }
    JoinExited();
  }
}

void Server::JoinExited() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    exited.swap(exited_);
  }
  for (std::thread& reader : exited) reader.join();
}

Result<Frame> Server::ReadFrameIdle(Connection* conn) {
  // Stop() shuts the socket down, which makes it readable at once.
  SES_ASSIGN_OR_RETURN(
      bool readable,
      WaitReadable(conn->sock.fd(), options_.idle_timeout_ms > 0
                                        ? options_.idle_timeout_ms
                                        : -1));
  if (!readable) {
    return Status::FailedPrecondition(
        "connection idle for " + std::to_string(options_.idle_timeout_ms) +
        "ms; closing");
  }
  return ReadFrame(conn->sock.fd());
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  if (Handshake(conn.get())) {
    conn->worker = std::thread(&Server::WorkerLoop, this, conn);
    ServeLoop(conn.get());
  }
  // Teardown, in dependency order: stop feeding the worker, wait for it to
  // finish every admitted request, then release this connection's stream
  // and signal the peer.
  conn->queue.Close();
  if (conn->worker.joinable()) conn->worker.join();
  conn->engine.reset();
  conn->sock.ShutdownBoth();
  // Leave the connection list, unless Stop() has taken it. This thread's
  // `conn` is then the last reference, so the catalog and its plans are
  // freed as it returns.
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = std::find(conns_.begin(), conns_.end(), conn);
  if (it == conns_.end()) return;  // Stop() joins this thread
  conns_.erase(it);
  exited_.push_back(std::move(conn->reader));
}

bool Server::Handshake(Connection* conn) {
  Result<Frame> frame = ReadFrameIdle(conn);
  if (!frame.ok()) {
    if (frame.status().code() != StatusCode::kIoError) {
      SendError(conn, frame.status());
    }
    return false;
  }
  if (frame->type != PacketType::kHello) {
    SendError(conn, Status::FailedPrecondition(
                        "expected Hello, got " +
                        std::string(PacketTypeName(frame->type))));
    return false;
  }
  Result<HelloRequest> hello = HelloRequest::Decode(frame->payload);
  if (!hello.ok()) {
    SendError(conn, hello.status());
    return false;
  }
  if (hello->version != kProtocolVersion) {
    SendError(conn, Status::InvalidArgument(
                        "protocol version " + std::to_string(hello->version) +
                        " not supported; this server speaks version " +
                        std::to_string(kProtocolVersion)));
    return false;
  }
  // The connection's private stream, built before the HelloAck so every
  // plan the client submits is registered after the engine exists.
  catalog::CatalogOptions catalog_options;
  catalog_options.sink = [conn](std::string_view plan_id, Match&& match) {
    conn->pending[std::string(plan_id)].push_back(std::move(match));
  };
  Result<std::unique_ptr<catalog::CatalogEngine>> engine =
      catalog::CatalogEngine::Create(conn->catalog, std::move(catalog_options));
  if (!engine.ok()) {
    SendError(conn, engine.status());
    return false;
  }
  conn->engine = std::move(*engine);
  HelloResponse ack;
  ack.version = kProtocolVersion;
  ack.schema_text = FormatSchemaText(options_.schema);
  return SendFrame(conn, PacketType::kHelloAck, ack.Encode()).ok();
}

void Server::ServeLoop(Connection* conn) {
  for (;;) {
    Result<Frame> frame = ReadFrameIdle(conn);
    if (!frame.ok()) {
      const StatusCode code = frame.status().code();
      if (code == StatusCode::kCorruption ||
          code == StatusCode::kInvalidArgument ||
          code == StatusCode::kFailedPrecondition) {
        // Bad frame or idle expiry: tell the peer why, then close — a
        // corrupt byte stream has no resynchronization point.
        SendError(conn, frame.status());
      }
      return;
    }
    switch (frame->type) {
      case PacketType::kPushEvents:
        HandlePushEvents(conn, *frame);
        break;
      case PacketType::kSubmitPlan:
      case PacketType::kRemovePlan:
      case PacketType::kFlush:
      case PacketType::kStatsRequest:
        // The worker answers these after every request queued before them;
        // a full queue blocks the reader, as the client awaits the answer.
        if (!conn->queue.Push(
                IngestItem{frame->type, {}, std::move(frame->payload)})) {
          return;
        }
        break;
      case PacketType::kHello:
        SendError(conn, Status::FailedPrecondition(
                            "handshake already completed"));
        break;
      default:
        // A response packet type from a client is a protocol violation.
        SendError(conn,
                  Status::InvalidArgument(
                      "unexpected packet type " +
                      std::string(PacketTypeName(frame->type)) +
                      " from client"));
        return;
    }
  }
}

void Server::HandlePushEvents(Connection* conn, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(conn->status_mu);
    if (!conn->stream_status.ok()) {
      SendError(conn, conn->stream_status);
      return;
    }
  }
  Result<PushEventsRequest> req =
      PushEventsRequest::Decode(frame.payload, options_.schema);
  if (!req.ok()) {
    SendError(conn, req.status());
    return;
  }
  IngestItem item{PacketType::kPushEvents, std::move(*req), {}};
  if (!conn->queue.TryPush(std::move(item))) {
    SendBusy(conn);
    return;
  }
  // Admission ack: evaluation happens on the worker; an evaluation error
  // surfaces as the Error reply to the next request on this connection.
  SendAck(conn, PacketType::kPushEvents, "queued");
}

void Server::HandleSubmitPlan(Connection* conn, std::string_view payload) {
  Result<SubmitPlanRequest> req = SubmitPlanRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status());
    return;
  }
  Result<Pattern> pattern = ParsePattern(req->query, options_.schema);
  if (!pattern.ok()) {
    SendError(conn,
              Status(pattern.status().code(), "plan '" + req->plan_id +
                                                  "': " +
                                                  pattern.status().message()));
    return;
  }
  Result<std::shared_ptr<const plan::CompiledPlan>> plan =
      plan::CompilePlan(*pattern, plan::PlanOptions{});
  if (!plan.ok()) {
    SendError(conn,
              Status(plan.status().code(),
                     "plan '" + req->plan_id + "': " +
                         plan.status().message()));
    return;
  }
  const Status added = conn->catalog->Add(req->plan_id, std::move(*plan));
  if (!added.ok()) {
    SendError(conn, added);
    return;
  }
  SendAck(conn, PacketType::kSubmitPlan, req->plan_id);
}

void Server::HandleRemovePlan(Connection* conn, std::string_view payload) {
  Result<RemovePlanRequest> req = RemovePlanRequest::Decode(payload);
  if (!req.ok()) {
    SendError(conn, req.status());
    return;
  }
  if (Status removed = conn->catalog->Remove(req->plan_id); !removed.ok()) {
    SendError(conn, removed);
    return;
  }
  SendAck(conn, PacketType::kRemovePlan, req->plan_id);
}

void Server::HandleStats(Connection* conn) {
  StatsResponse stats;
  stats.catalog = conn->engine->stats();
  stats.plans = conn->engine->plan_stats();
  SendFrame(conn, PacketType::kStats, stats.Encode()).ok();
}

void Server::WorkerLoop(std::shared_ptr<Connection> conn) {
  catalog::CatalogEngine& engine = *conn->engine;
  // Set by a Flush: the stream has ended, and the next slab starts a new
  // one. The reset waits for that slab, so a Stats in between still covers
  // the finished stream.
  bool ended = false;
  while (std::optional<IngestItem> item = conn->queue.Pop()) {
    if (options_.eval_gate) options_.eval_gate();
    switch (item->request) {
      case PacketType::kPushEvents: {
        if (ended) {
          engine.Reset();
          ended = false;
        }
        Status status =
            item->push.layout == PushEventsRequest::Layout::kColumnar
                ? engine.PushColumnar(item->push.columnar)
                : engine.PushBatch(std::span<const Event>(item->push.events));
        const Status delivered = DeliverPending(conn.get());
        if (status.ok()) status = delivered;
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(conn->status_mu);
          if (conn->stream_status.ok()) conn->stream_status = status;
        }
        break;
      }
      case PacketType::kFlush: {
        Status status = engine.Flush();
        ended = true;
        // Matches first, then the Ack: once a client sees the Flush Ack,
        // every match of the stream has been written to its socket.
        const Status delivered = DeliverPending(conn.get());
        {
          // A slab that failed evaluation or delivery fails the Flush too —
          // otherwise the stream would end silently missing matches. The
          // error is reported once; the next stream starts clean.
          std::lock_guard<std::mutex> lock(conn->status_mu);
          if (status.ok()) status = conn->stream_status;
          if (status.ok()) status = delivered;
          conn->stream_status = Status::OK();
        }
        if (status.ok()) {
          SendAck(conn.get(), PacketType::kFlush, "");
        } else {
          SendError(conn.get(), status);
        }
        break;
      }
      case PacketType::kSubmitPlan:
        HandleSubmitPlan(conn.get(), item->payload);
        break;
      case PacketType::kRemovePlan:
        HandleRemovePlan(conn.get(), item->payload);
        break;
      default:  // kStatsRequest; the reader queues nothing else
        HandleStats(conn.get());
        break;
    }
  }
}

Status Server::DeliverPending(Connection* conn) {
  // Every plan's frames, in plan-id order, go out in one write; the buffer
  // is sent early before a frame would take it past kMaxFrameBody.
  std::string wire;
  auto send = [&] {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    WriteAll(conn->sock.fd(), wire).ok();
    wire.clear();
  };
  Status first_error;
  for (const auto& [plan_id, matches] : conn->pending) {
    const Status split = MatchBatchResponse::EncodeSplit(
        plan_id, std::span<const Match>(matches), options_.schema,
        kMaxMatchPayload, [&](std::string_view payload) {
          if (!wire.empty() &&
              wire.size() + kFrameOverhead + payload.size() > kMaxFrameBody) {
            send();
          }
          EncodeFrame(PacketType::kMatchBatch, payload, &wire);
        });
    if (first_error.ok()) first_error = split;
  }
  if (!wire.empty()) send();
  conn->pending.clear();
  return first_error;
}

Status Server::SendFrame(Connection* conn, PacketType type,
                         std::string_view payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  return WriteFrame(conn->sock.fd(), type, payload);
}

void Server::SendAck(Connection* conn, PacketType request,
                     std::string_view info) {
  AckResponse ack;
  ack.request = request;
  ack.info = std::string(info);
  SendFrame(conn, PacketType::kAck, ack.Encode()).ok();
}

void Server::SendError(Connection* conn, const Status& status) {
  ErrorResponse error;
  error.code = status.code();
  error.message = status.message();
  SendFrame(conn, PacketType::kError, error.Encode()).ok();
}

void Server::SendBusy(Connection* conn) {
  BusyResponse busy;
  busy.queue_depth = conn->queue.depth();
  busy.queue_capacity = conn->queue.capacity();
  SendFrame(conn, PacketType::kBusy, busy.Encode()).ok();
}

}  // namespace ses::net
