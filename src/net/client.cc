#include "net/client.h"

#include <chrono>
#include <thread>
#include <utility>

namespace ses::net {

Result<std::unique_ptr<Client>> Client::Connect(ClientOptions options) {
  std::unique_ptr<Client> client(new Client());
  client->options_ = std::move(options);
  SES_ASSIGN_OR_RETURN(client->sock_,
                       ConnectTcp(client->options_.port));
  SES_RETURN_IF_ERROR(
      SetRecvTimeout(client->sock_.fd(), client->options_.recv_timeout_ms));

  HelloRequest hello;
  hello.version = kProtocolVersion;
  hello.client_name = client->options_.client_name;
  SES_RETURN_IF_ERROR(
      WriteFrame(client->sock_.fd(), PacketType::kHello, hello.Encode()));
  SES_ASSIGN_OR_RETURN(Frame frame, ReadFrame(client->sock_.fd()));
  if (frame.type == PacketType::kError) {
    SES_ASSIGN_OR_RETURN(ErrorResponse error,
                         ErrorResponse::Decode(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != PacketType::kHelloAck) {
    return Status::Internal("expected HelloAck, got " +
                            std::string(PacketTypeName(frame.type)));
  }
  SES_ASSIGN_OR_RETURN(HelloResponse ack,
                       HelloResponse::Decode(frame.payload));
  SES_ASSIGN_OR_RETURN(client->schema_, ParseSchemaText(ack.schema_text));
  return client;
}

Result<Frame> Client::Transact(PacketType type, std::string_view payload) {
  if (!sock_.valid()) return Status::FailedPrecondition("client is closed");
  SES_RETURN_IF_ERROR(WriteFrame(sock_.fd(), type, payload));
  for (;;) {
    SES_ASSIGN_OR_RETURN(Frame frame, ReadFrame(sock_.fd()));
    if (frame.type == PacketType::kMatchBatch) {
      SES_RETURN_IF_ERROR(OnMatchBatch(frame));
      continue;
    }
    return frame;
  }
}

Status Client::OnMatchBatch(const Frame& frame) {
  SES_ASSIGN_OR_RETURN(MatchBatchResponse batch,
                       MatchBatchResponse::Decode(frame.payload, schema_));
  if (options_.match_sink) {
    options_.match_sink(batch);
    return Status::OK();
  }
  std::vector<Match>& sink = matches_[batch.plan_id];
  for (Match& match : batch.matches) sink.push_back(std::move(match));
  return Status::OK();
}

Status Client::ExpectAck(const Frame& frame, PacketType request) {
  if (frame.type == PacketType::kError) {
    SES_ASSIGN_OR_RETURN(ErrorResponse error,
                         ErrorResponse::Decode(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != PacketType::kAck) {
    return Status::Internal("expected Ack for " +
                            std::string(PacketTypeName(request)) + ", got " +
                            std::string(PacketTypeName(frame.type)));
  }
  SES_ASSIGN_OR_RETURN(AckResponse ack, AckResponse::Decode(frame.payload));
  if (ack.request != request) {
    return Status::Internal("Ack names " +
                            std::string(PacketTypeName(ack.request)) +
                            ", expected " +
                            std::string(PacketTypeName(request)));
  }
  return Status::OK();
}

Status Client::SubmitPlan(const std::string& id, const std::string& query) {
  SubmitPlanRequest req;
  req.plan_id = id;
  req.query = query;
  SES_ASSIGN_OR_RETURN(Frame frame,
                       Transact(PacketType::kSubmitPlan, req.Encode()));
  return ExpectAck(frame, PacketType::kSubmitPlan);
}

Status Client::RemovePlan(const std::string& id) {
  RemovePlanRequest req;
  req.plan_id = id;
  SES_ASSIGN_OR_RETURN(Frame frame,
                       Transact(PacketType::kRemovePlan, req.Encode()));
  return ExpectAck(frame, PacketType::kRemovePlan);
}

Result<bool> Client::Push(std::span<const Event> events) {
  return PushPayload(PushEventsRequest::EncodeRows(events, schema_));
}

Result<bool> Client::PushColumnar(const ColumnarBatch& batch) {
  if (batch.schema() != schema_) {
    return Status::InvalidArgument(
        "columnar batch schema differs from the served stream schema");
  }
  return PushPayload(PushEventsRequest::EncodeColumnar(batch));
}

Result<bool> Client::PushPayload(std::string payload) {
  for (;;) {
    SES_ASSIGN_OR_RETURN(Frame frame,
                         Transact(PacketType::kPushEvents, payload));
    if (frame.type == PacketType::kBusy) {
      if (options_.busy_retry_ms <= 0) return false;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.busy_retry_ms));
      continue;
    }
    SES_RETURN_IF_ERROR(ExpectAck(frame, PacketType::kPushEvents));
    return true;
  }
}

Status Client::Flush() {
  SES_ASSIGN_OR_RETURN(Frame frame, Transact(PacketType::kFlush, ""));
  return ExpectAck(frame, PacketType::kFlush);
}

Result<StatsResponse> Client::Stats() {
  SES_ASSIGN_OR_RETURN(Frame frame, Transact(PacketType::kStatsRequest, ""));
  if (frame.type == PacketType::kError) {
    SES_ASSIGN_OR_RETURN(ErrorResponse error,
                         ErrorResponse::Decode(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != PacketType::kStats) {
    return Status::Internal("expected Stats, got " +
                            std::string(PacketTypeName(frame.type)));
  }
  return StatsResponse::Decode(frame.payload);
}

std::map<std::string, std::vector<Match>> Client::TakeMatches() {
  std::map<std::string, std::vector<Match>> out;
  out.swap(matches_);
  return out;
}

void Client::Close() { sock_.Reset(); }

}  // namespace ses::net
