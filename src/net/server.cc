#include "net/server.h"

#include <chrono>
#include <filesystem>
#include <span>
#include <utility>

#include "common/logging.h"
#include "engine/registry.h"
#include "plan/compiled_plan.h"
#include "query/parser.h"
#include "storage/checkpoint.h"

namespace ses::net {

namespace {

/// Poll slice of the reader loop: short enough that stop requests and
/// fake-clock idle expiry are observed promptly, long enough to stay off
/// the CPU when a connection is quiet.
constexpr int kPollSliceMs = 25;

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  if (options.schema.num_attributes() == 0) {
    return Status::InvalidArgument("server needs a non-empty stream schema");
  }
  if (!engine::HasEngine(options.engine)) {
    return Status::InvalidArgument("unknown engine: " + options.engine);
  }
  if (!options.clock_ms) options.clock_ms = SteadyNowMs;

  std::unique_ptr<Server> server(new Server(std::move(options)));
  SES_ASSIGN_OR_RETURN(server->listener_,
                       ListenTcp(server->options_.port, &server->port_));
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  return server;
}

Server::~Server() { Stop(); }

int64_t Server::NowMs() const { return options_.clock_ms(); }

void Server::Stop() {
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Wake every reader blocked in poll/recv; readers tear down their own
  // worker, stream, and queue on the way out.
  for (const auto& conn : conns) conn->sock.ShutdownBoth();
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  listener_.Reset();
}

size_t Server::num_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  size_t live = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) ++live;
  }
  return live;
}

size_t Server::num_plans() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  size_t plans = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) plans += conn->catalog->size();
  }
  return plans;
}

void Server::AcceptLoop() {
  while (!stop_.load()) {
    Result<bool> readable = WaitReadable(listener_.fd(), kPollSliceMs);
    if (!readable.ok()) break;
    if (*readable && !stop_.load()) {
      Result<Socket> sock = Accept(listener_);
      if (sock.ok()) {
        auto conn = std::make_shared<Connection>(options_.queue_capacity);
        conn->sock = std::move(*sock);
        conn->last_activity_ms = NowMs();
        SetRecvTimeout(conn->sock.fd(), options_.read_timeout_ms).ok();
        SetSendTimeout(conn->sock.fd(), options_.write_timeout_ms).ok();
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          conns_.push_back(conn);
        }
        conn->reader = std::thread(&Server::ReaderLoop, this, conn);
      }
    }
    ReapFinished();
  }
}

void Server::ReapFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

Result<Frame> Server::ReadFrameIdle(Connection* conn) {
  for (;;) {
    if (stop_.load()) return Status::IoError("server stopping");
    SES_ASSIGN_OR_RETURN(bool readable,
                         WaitReadable(conn->sock.fd(), kPollSliceMs));
    if (readable) {
      conn->last_activity_ms = NowMs();
      return ReadFrame(conn->sock.fd());
    }
    if (options_.idle_timeout_ms > 0 &&
        NowMs() - conn->last_activity_ms >= options_.idle_timeout_ms) {
      return Status::FailedPrecondition(
          "connection idle for " + std::to_string(options_.idle_timeout_ms) +
          "ms; closing");
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  if (Handshake(conn.get())) {
    conn->worker = std::thread(&Server::WorkerLoop, this, conn);
    ServeLoop(conn.get());
  }
  // Teardown, in dependency order: stop feeding the worker, wait for it to
  // finish every admitted slab, then release this connection's stream and
  // signal the peer.
  conn->queue.Close();
  if (conn->worker.joinable()) conn->worker.join();
  conn->engine.reset();
  conn->sock.ShutdownBoth();
  conn->done.store(true);
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
  conn->name = hello->client_name;
  // The connection's private stream, built before the HelloAck so every
  // plan the client submits is registered after the engine exists.
  catalog::CatalogOptions catalog_options;
  catalog_options.engine = options_.engine;
  catalog_options.engine_options = options_.engine_options;
  catalog_options.shared_type_index = options_.shared_type_index;
  catalog_options.shared_prefilter = options_.shared_prefilter;
  catalog_options.type_attribute = options_.type_attribute;
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
  ack.engine = options_.engine;
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
      case PacketType::kSubmitPlan:
        HandleSubmitPlan(conn, *frame);
        break;
      case PacketType::kRemovePlan:
        HandleRemovePlan(conn, *frame);
        break;
      case PacketType::kPushEvents:
        HandlePushEvents(conn, *frame);
        break;
      case PacketType::kFlush:
      case PacketType::kCheckpoint:
      case PacketType::kStatsRequest:
        // The worker answers these after every slab queued before them; a
        // full queue blocks the reader, as the client awaits the answer.
        if (!conn->queue.Push(IngestItem{frame->type, {}})) return;
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

void Server::HandleSubmitPlan(Connection* conn, const Frame& frame) {
  Result<SubmitPlanRequest> req = SubmitPlanRequest::Decode(frame.payload);
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

void Server::HandleRemovePlan(Connection* conn, const Frame& frame) {
  Result<RemovePlanRequest> req = RemovePlanRequest::Decode(frame.payload);
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
  IngestItem item{PacketType::kPushEvents, std::move(*req)};
  if (!conn->queue.TryPush(std::move(item))) {
    SendBusy(conn);
    return;
  }
  // Admission ack: evaluation happens on the worker; an evaluation error
  // surfaces as the Error reply to the next request on this connection.
  SendAck(conn, PacketType::kPushEvents, "queued");
}

void Server::HandleCheckpoint(Connection* conn) {
  if (options_.checkpoint_dir.empty()) {
    SendError(conn, Status::FailedPrecondition(
                        "server started without --checkpoint-dir"));
    return;
  }
  storage::CheckpointWriter writer;
  Status status = conn->engine->Checkpoint(&writer);
  if (!status.ok()) {
    SendError(conn, status);
    return;
  }
  const int64_t seq = checkpoint_seq_.fetch_add(1) + 1;
  const std::string path = options_.checkpoint_dir + "/SES_CKPT_" +
                           std::to_string(seq) + ".sesckpt";
  status = storage::WriteCheckpointFile(path, std::move(writer).Finish());
  if (!status.ok()) {
    SendError(conn, status);
    return;
  }
  SendAck(conn, PacketType::kCheckpoint, path);
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
  // one. The reset waits for that slab, so Stats and Checkpoint in between
  // still cover the finished stream.
  bool ended = false;
  while (std::optional<IngestItem> item = conn->queue.Pop()) {
    if (options_.eval_gate) options_.eval_gate();
    switch (item->request) {
      case PacketType::kPushEvents: {
        if (ended) {
          engine.Reset();
          ended = false;
        }
        const Status status =
            item->push.layout == PushEventsRequest::Layout::kColumnar
                ? engine.PushColumnar(item->push.columnar)
                : engine.PushBatch(std::span<const Event>(item->push.events));
        DeliverPending(conn.get());
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(conn->status_mu);
          if (conn->stream_status.ok()) conn->stream_status = status;
        }
        break;
      }
      case PacketType::kFlush: {
        Status status = engine.Flush();
        ended = true;
        {
          // A slab that failed evaluation fails the Flush too — otherwise
          // the stream would end silently missing matches. The error is
          // reported once; the next stream starts clean.
          std::lock_guard<std::mutex> lock(conn->status_mu);
          if (status.ok()) status = conn->stream_status;
          conn->stream_status = Status::OK();
        }
        // Matches first, then the Ack: once a client sees the Flush Ack,
        // every match of the stream has been written to its socket.
        DeliverPending(conn.get());
        if (status.ok()) {
          SendAck(conn.get(), PacketType::kFlush, "");
        } else {
          SendError(conn.get(), status);
        }
        break;
      }
      case PacketType::kCheckpoint:
        HandleCheckpoint(conn.get());
        break;
      default:  // kStatsRequest; the reader queues nothing else
        HandleStats(conn.get());
        break;
    }
  }
}

void Server::DeliverPending(Connection* conn) {
  for (const auto& [plan_id, matches] : conn->pending) {
    const std::string payload = MatchBatchResponse::Encode(
        plan_id, std::span<const Match>(matches), options_.schema);
    SendFrame(conn, PacketType::kMatchBatch, payload).ok();
  }
  conn->pending.clear();
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
