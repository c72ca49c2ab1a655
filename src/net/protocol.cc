#include "net/protocol.h"

#include <cstring>

#include "common/crc32c.h"
#include "storage/checkpoint.h"

namespace ses::net {

namespace {

void AppendFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

uint32_t ReadFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

/// The smallest legal body: type byte + empty payload + crc.
constexpr uint32_t kMinFrameBody = 1 + 4;

/// Bytes storage::PutCount spends on `v` (a base-128 varint).
size_t VarintLength(uint64_t v) {
  size_t bytes = 1;
  for (; v >= 128; v >>= 7) ++bytes;
  return bytes;
}

Status GetCount32(const char** p, const char* limit, uint32_t* out,
                  std::string_view what) {
  uint64_t v = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(p, limit, &v));
  if (v > UINT32_MAX) {
    return Status::Corruption(std::string(what) + " out of range");
  }
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ExpectConsumed(const char* p, const char* limit,
                      std::string_view what) {
  if (p != limit) {
    return Status::Corruption(std::string(what) +
                              " payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

bool IsKnownPacketType(uint8_t type) {
  switch (static_cast<PacketType>(type)) {
    case PacketType::kHello:
    case PacketType::kSubmitPlan:
    case PacketType::kRemovePlan:
    case PacketType::kPushEvents:
    case PacketType::kFlush:
    case PacketType::kStatsRequest:
    case PacketType::kHelloAck:
    case PacketType::kAck:
    case PacketType::kMatchBatch:
    case PacketType::kStats:
    case PacketType::kError:
    case PacketType::kBusy:
      return true;
  }
  return false;
}

std::string_view PacketTypeName(PacketType type) {
  switch (type) {
    case PacketType::kHello:
      return "Hello";
    case PacketType::kSubmitPlan:
      return "SubmitPlan";
    case PacketType::kRemovePlan:
      return "RemovePlan";
    case PacketType::kPushEvents:
      return "PushEvents";
    case PacketType::kFlush:
      return "Flush";
    case PacketType::kStatsRequest:
      return "StatsRequest";
    case PacketType::kHelloAck:
      return "HelloAck";
    case PacketType::kAck:
      return "Ack";
    case PacketType::kMatchBatch:
      return "MatchBatch";
    case PacketType::kStats:
      return "Stats";
    case PacketType::kError:
      return "Error";
    case PacketType::kBusy:
      return "Busy";
  }
  return "Unknown";
}

void EncodeFrame(PacketType type, std::string_view payload,
                 std::string* out) {
  const uint32_t body = static_cast<uint32_t>(1 + payload.size() + 4);
  AppendFixed32(out, body);
  const size_t body_start = out->size();
  out->push_back(static_cast<char>(type));
  out->append(payload);
  const uint32_t crc =
      crc32c::Value(out->data() + body_start, 1 + payload.size());
  AppendFixed32(out, crc32c::Mask(crc));
}

Result<Frame> DecodeFrame(std::string_view data, size_t* consumed) {
  if (data.size() < 4) {
    return Status::Corruption("truncated frame: missing length prefix");
  }
  const uint32_t body = ReadFixed32(data.data());
  if (body < kMinFrameBody) {
    return Status::Corruption("frame body length " + std::to_string(body) +
                              " below minimum");
  }
  if (body > kMaxFrameBody) {
    return Status::InvalidArgument(
        "frame body length " + std::to_string(body) + " exceeds limit " +
        std::to_string(kMaxFrameBody));
  }
  if (data.size() - 4 < body) {
    return Status::Corruption("truncated frame: body needs " +
                              std::to_string(body) + " bytes, have " +
                              std::to_string(data.size() - 4));
  }
  const char* p = data.data() + 4;
  const uint8_t type = static_cast<uint8_t>(p[0]);
  const uint32_t expected =
      crc32c::Unmask(ReadFixed32(p + (body - 4)));
  const uint32_t actual = crc32c::Value(p, body - 4);
  if (expected != actual) {
    return Status::Corruption("frame checksum mismatch");
  }
  if (!IsKnownPacketType(type)) {
    return Status::InvalidArgument("unknown packet type " +
                                   std::to_string(type));
  }
  Frame frame;
  frame.type = static_cast<PacketType>(type);
  frame.payload.assign(p + 1, body - 1 - 4);
  if (consumed != nullptr) *consumed = 4 + static_cast<size_t>(body);
  return frame;
}

uint8_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint8_t>(code);
}

StatusCode StatusCodeFromWire(uint8_t wire) {
  if (wire > static_cast<uint8_t>(StatusCode::kInternal)) {
    return StatusCode::kInternal;
  }
  StatusCode code = static_cast<StatusCode>(wire);
  // kOk would make an Error frame succeed; surface it as Internal instead.
  return code == StatusCode::kOk ? StatusCode::kInternal : code;
}

std::string HelloRequest::Encode() const {
  std::string payload;
  storage::PutCount(&payload, version);
  storage::PutString(&payload, client_name);
  return payload;
}

Result<HelloRequest> HelloRequest::Decode(std::string_view payload) {
  HelloRequest out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(GetCount32(&p, limit, &out.version, "Hello version"));
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.client_name));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "Hello"));
  return out;
}

std::string SubmitPlanRequest::Encode() const {
  std::string payload;
  storage::PutString(&payload, plan_id);
  storage::PutString(&payload, query);
  return payload;
}

Result<SubmitPlanRequest> SubmitPlanRequest::Decode(
    std::string_view payload) {
  SubmitPlanRequest out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.plan_id));
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.query));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "SubmitPlan"));
  return out;
}

std::string RemovePlanRequest::Encode() const {
  std::string payload;
  storage::PutString(&payload, plan_id);
  return payload;
}

Result<RemovePlanRequest> RemovePlanRequest::Decode(
    std::string_view payload) {
  RemovePlanRequest out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.plan_id));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "RemovePlan"));
  return out;
}

std::string PushEventsRequest::EncodeRows(std::span<const Event> events,
                                          const Schema& schema) {
  std::string payload;
  payload.push_back(static_cast<char>(Layout::kRow));
  storage::PutCount(&payload, events.size());
  for (const Event& event : events) {
    storage::PutEventRecord(&payload, event, schema);
  }
  return payload;
}

std::string PushEventsRequest::EncodeColumnar(const ColumnarBatch& batch) {
  std::string payload;
  payload.push_back(static_cast<char>(Layout::kColumnar));
  const Schema& schema = batch.schema();
  const size_t rows = batch.size();
  storage::PutCount(&payload, rows);
  for (size_t r = 0; r < rows; ++r) {
    storage::PutSigned(&payload, batch.id(r));
  }
  for (size_t r = 0; r < rows; ++r) {
    storage::PutSigned(&payload, batch.timestamp(r));
  }
  for (int a = 0; a < schema.num_attributes(); ++a) {
    switch (schema.attribute(a).type) {
      case ValueType::kInt64:
        for (int64_t v : batch.int64_column(a)) {
          storage::PutSigned(&payload, v);
        }
        break;
      case ValueType::kDouble:
        for (double v : batch.double_column(a)) {
          storage::PutDouble(&payload, v);
        }
        break;
      case ValueType::kString: {
        const ColumnarBatch::StringColumn& col = batch.string_column(a);
        storage::PutCount(&payload, col.dict.size());
        for (const std::string& s : col.dict) {
          storage::PutString(&payload, s);
        }
        for (int32_t code : col.codes) {
          storage::PutCount(&payload, static_cast<uint64_t>(code));
        }
        break;
      }
    }
  }
  return payload;
}

Result<PushEventsRequest> PushEventsRequest::Decode(std::string_view payload,
                                                    const Schema& schema) {
  if (payload.empty()) {
    return Status::Corruption("PushEvents payload is empty");
  }
  PushEventsRequest out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  const uint8_t layout = static_cast<uint8_t>(*p++);
  if (layout == static_cast<uint8_t>(Layout::kRow)) {
    out.layout = Layout::kRow;
    uint64_t count = 0;
    SES_RETURN_IF_ERROR(storage::GetItemCount(&p, limit, &count));
    out.events.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Event event;
      SES_RETURN_IF_ERROR(storage::GetEventRecord(&p, limit, schema, &event));
      out.events.push_back(std::move(event));
    }
    SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "PushEvents"));
    return out;
  }
  if (layout != static_cast<uint8_t>(Layout::kColumnar)) {
    return Status::Corruption("PushEvents layout byte " +
                              std::to_string(layout) + " unknown");
  }
  out.layout = Layout::kColumnar;
  uint64_t rows = 0;
  // Each row carries at least one byte per column in every encoding.
  SES_RETURN_IF_ERROR(storage::GetItemCount(&p, limit, &rows));
  ColumnarBatch batch(schema);
  std::vector<int64_t> ids(rows), timestamps(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &ids[r]));
  }
  for (uint64_t r = 0; r < rows; ++r) {
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &timestamps[r]));
  }
  for (uint64_t r = 0; r < rows; ++r) {
    batch.AppendIdTimestamp(ids[r], timestamps[r]);
  }
  for (int a = 0; a < schema.num_attributes(); ++a) {
    switch (schema.attribute(a).type) {
      case ValueType::kInt64:
        for (uint64_t r = 0; r < rows; ++r) {
          int64_t v = 0;
          SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &v));
          batch.AppendInt64(a, v);
        }
        break;
      case ValueType::kDouble:
        for (uint64_t r = 0; r < rows; ++r) {
          double v = 0;
          SES_RETURN_IF_ERROR(storage::GetDouble(&p, limit, &v));
          batch.AppendDouble(a, v);
        }
        break;
      case ValueType::kString: {
        uint64_t dict_size = 0;
        SES_RETURN_IF_ERROR(storage::GetItemCount(&p, limit, &dict_size));
        std::vector<std::string> dict(dict_size);
        for (uint64_t d = 0; d < dict_size; ++d) {
          SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &dict[d]));
        }
        for (uint64_t r = 0; r < rows; ++r) {
          uint64_t code = 0;
          SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &code));
          if (code >= dict_size) {
            return Status::Corruption(
                "PushEvents dictionary code " + std::to_string(code) +
                " out of range for dictionary of " +
                std::to_string(dict_size));
          }
          batch.AppendString(a, dict[code]);
        }
        break;
      }
    }
  }
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "PushEvents"));
  out.columnar = std::move(batch);
  return out;
}

std::string HelloResponse::Encode() const {
  std::string payload;
  storage::PutCount(&payload, version);
  storage::PutString(&payload, schema_text);
  return payload;
}

Result<HelloResponse> HelloResponse::Decode(std::string_view payload) {
  HelloResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(
      GetCount32(&p, limit, &out.version, "HelloAck version"));
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.schema_text));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "HelloAck"));
  return out;
}

std::string AckResponse::Encode() const {
  std::string payload;
  storage::PutCount(&payload, static_cast<uint64_t>(request));
  storage::PutString(&payload, info);
  return payload;
}

Result<AckResponse> AckResponse::Decode(std::string_view payload) {
  AckResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t request = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &request));
  if (request > 255 || !IsKnownPacketType(static_cast<uint8_t>(request))) {
    return Status::Corruption("Ack names unknown request type " +
                              std::to_string(request));
  }
  out.request = static_cast<PacketType>(request);
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.info));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "Ack"));
  return out;
}

std::string MatchBatchResponse::Encode(std::string_view plan_id,
                                       std::span<const Match> matches,
                                       const Schema& schema) {
  std::string payload;
  storage::PutString(&payload, plan_id);
  storage::PutCount(&payload, matches.size());
  for (const Match& match : matches) {
    CheckpointMatch(match, schema, &payload);
  }
  return payload;
}

Status MatchBatchResponse::EncodeSplit(
    std::string_view plan_id, std::span<const Match> matches,
    const Schema& schema, size_t max_payload,
    const std::function<void(std::string_view payload)>& emit) {
  std::string head;
  storage::PutString(&head, plan_id);
  std::string body;  // the pending payload's match blobs
  std::string blob;
  std::string payload;
  uint64_t count = 0;
  // The payload size once `blob` joins the pending ones.
  auto size_with_blob = [&] {
    return head.size() + VarintLength(count + 1) + body.size() + blob.size();
  };
  auto flush = [&] {
    payload = head;
    storage::PutCount(&payload, count);
    payload += body;
    emit(payload);
    body.clear();
    count = 0;
  };
  for (const Match& match : matches) {
    blob.clear();
    CheckpointMatch(match, schema, &blob);
    if (count > 0 && size_with_blob() > max_payload) flush();
    if (size_with_blob() > max_payload) {
      return Status::InvalidArgument(
          "plan '" + std::string(plan_id) + "': a match of " +
          std::to_string(blob.size()) +
          " encoded bytes exceeds the MatchBatch payload limit of " +
          std::to_string(max_payload) + " bytes");
    }
    body += blob;
    ++count;
  }
  if (count > 0) flush();
  return Status::OK();
}

Result<MatchBatchResponse> MatchBatchResponse::Decode(
    std::string_view payload, const Schema& schema) {
  MatchBatchResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.plan_id));
  uint64_t count = 0;
  SES_RETURN_IF_ERROR(storage::GetItemCount(&p, limit, &count));
  out.matches.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Match match;
    SES_RETURN_IF_ERROR(RestoreMatch(&p, limit, schema, &match));
    out.matches.push_back(std::move(match));
  }
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "MatchBatch"));
  return out;
}

std::string ErrorResponse::Encode() const {
  std::string payload;
  storage::PutCount(&payload, StatusCodeToWire(code));
  storage::PutString(&payload, message);
  return payload;
}

Result<ErrorResponse> ErrorResponse::Decode(std::string_view payload) {
  ErrorResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t wire = 0;
  SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &wire));
  out.code = StatusCodeFromWire(
      wire > 255 ? 255 : static_cast<uint8_t>(wire));
  SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &out.message));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "Error"));
  return out;
}

std::string BusyResponse::Encode() const {
  std::string payload;
  storage::PutCount(&payload, queue_depth);
  storage::PutCount(&payload, queue_capacity);
  return payload;
}

Result<BusyResponse> BusyResponse::Decode(std::string_view payload) {
  BusyResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &out.queue_depth));
  SES_RETURN_IF_ERROR(storage::GetCount(&p, limit, &out.queue_capacity));
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "Busy"));
  return out;
}

std::string StatsResponse::Encode() const {
  std::string payload;
  storage::PutSigned(&payload, catalog.events_pushed);
  storage::PutSigned(&payload, catalog.num_plans);
  storage::PutSigned(&payload, catalog.generation);
  storage::PutSigned(&payload, catalog.snapshot_refreshes);
  storage::PutSigned(&payload, catalog.type_attribute);
  storage::PutSigned(&payload, catalog.distinct_conditions);
  storage::PutSigned(&payload, catalog.plan_conditions);
  storage::PutSigned(&payload, catalog.events_considered);
  storage::PutSigned(&payload, catalog.events_skipped_by_index);
  storage::PutSigned(&payload, catalog.events_skipped_by_prefilter);
  storage::PutSigned(&payload, catalog.matches);
  storage::PutCount(&payload, plans.size());
  for (const catalog::PlanStats& plan : plans) {
    storage::PutString(&payload, plan.id);
    storage::PutSigned(&payload, plan.matches);
    storage::PutSigned(&payload, plan.events_considered);
    storage::PutSigned(&payload, plan.events_skipped_by_index);
    storage::PutSigned(&payload, plan.events_skipped_by_prefilter);
    PutExecutorStats(&payload, plan.executor);
  }
  return payload;
}

Result<StatsResponse> StatsResponse::Decode(std::string_view payload) {
  StatsResponse out;
  const char* p = payload.data();
  const char* limit = p + payload.size();
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.events_pushed));
  SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &out.catalog.num_plans));
  SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &out.catalog.generation));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.snapshot_refreshes));
  int64_t type_attribute = 0;
  SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &type_attribute));
  if (type_attribute < INT32_MIN || type_attribute > INT32_MAX) {
    return Status::Corruption("Stats type_attribute out of range");
  }
  out.catalog.type_attribute = static_cast<int>(type_attribute);
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.distinct_conditions));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.plan_conditions));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.events_considered));
  SES_RETURN_IF_ERROR(
      storage::GetSigned(&p, limit, &out.catalog.events_skipped_by_index));
  SES_RETURN_IF_ERROR(storage::GetSigned(
      &p, limit, &out.catalog.events_skipped_by_prefilter));
  SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &out.catalog.matches));
  uint64_t num_plans = 0;
  SES_RETURN_IF_ERROR(storage::GetItemCount(&p, limit, &num_plans));
  out.plans.resize(num_plans);
  for (uint64_t i = 0; i < num_plans; ++i) {
    catalog::PlanStats& plan = out.plans[i];
    SES_RETURN_IF_ERROR(storage::GetString(&p, limit, &plan.id));
    SES_RETURN_IF_ERROR(storage::GetSigned(&p, limit, &plan.matches));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(&p, limit, &plan.events_considered));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(&p, limit, &plan.events_skipped_by_index));
    SES_RETURN_IF_ERROR(
        storage::GetSigned(&p, limit, &plan.events_skipped_by_prefilter));
    SES_RETURN_IF_ERROR(GetExecutorStats(&p, limit, &plan.executor));
  }
  SES_RETURN_IF_ERROR(ExpectConsumed(p, limit, "Stats"));
  return out;
}

}  // namespace ses::net
