#ifndef SES_NET_PROTOCOL_H_
#define SES_NET_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog_engine.h"
#include "common/result.h"
#include "core/match.h"
#include "event/columnar.h"
#include "event/event.h"
#include "event/schema.h"

namespace ses::net {

/// The SES wire protocol ("sesnet"): a versioned, length-prefixed,
/// packet-typed binary protocol between net::Client and net::Server
/// (docs/SERVER.md has the operator-facing packet table).
///
/// Frame layout (all fixed-width integers little-endian):
///
///   frame  := length(fixed32) body
///   body   := type(uint8) payload crc(fixed32, masked CRC-32C over
///             type + payload — same masking scheme as the checkpoint
///             container and the table format)
///
/// `length` counts the body (type + payload + crc), so a reader needs
/// exactly two reads per frame. Any truncation, flipped byte, unknown
/// packet type, or oversized length decodes to a typed error (Corruption /
/// InvalidArgument) — never undefined behavior; the corruption suite in
/// tests/net_protocol_test.cc walks every prefix and bit flip.
///
/// Payloads are built from the checkpoint container's bounds-checked
/// encoding primitives (storage::Put*/Get*, storage/checkpoint.h), so the
/// wire shares one serialization vocabulary with the persistence layer:
/// events travel as PutEventRecord records, matches as CheckpointMatch
/// blobs, columnar batches column-by-column.
///
/// Conversation shape: the client opens with Hello and the server answers
/// HelloAck (version handshake + the served stream schema) or Error (and
/// closes) on version skew. After the handshake the client keeps at most
/// one request outstanding; every request is answered by exactly one Ack /
/// Stats / Busy / Error, and MatchBatch frames may arrive interleaved at
/// any point (standing queries deliver matches as windows close, not on a
/// request cadence).

/// Protocol version spoken by this build. The handshake requires an exact
/// match: an older or a future version is rejected with
/// Error(InvalidArgument) before any other packet is interpreted, and the
/// connection is closed cleanly.
constexpr uint32_t kProtocolVersion = 4;

/// Hard ceiling on the frame body (type + payload + crc). Push larger
/// streams as multiple PushEvents frames; a length beyond this is rejected
/// as InvalidArgument before any allocation.
constexpr uint32_t kMaxFrameBody = 32u * 1024u * 1024u;

/// Packet types. Requests (client → server) live below 16, responses
/// (server → client) at 16 and above; a server receiving a response type
/// (or vice versa) treats it as a protocol error.
enum class PacketType : uint8_t {
  // client → server
  kHello = 1,         // version handshake; first packet on every connection
  kSubmitPlan = 2,    // register a standing query
  kRemovePlan = 3,    // unregister one of this connection's queries
  kPushEvents = 4,    // a slab of stream events (row or columnar payload)
  kFlush = 5,         // ends the connection's stream
  // 6 was Checkpoint, deleted in protocol 4; a frame of type 6 is unknown.
  kStatsRequest = 7,  // ask for the engine/catalog statistics snapshot

  // server → client
  kHelloAck = 16,    // handshake accepted: version + stream schema
  kAck = 17,         // request completed
  kMatchBatch = 18,  // matches for one plan (may arrive at any time)
  kStats = 19,       // statistics snapshot (answer to kStatsRequest)
  kError = 20,       // request failed: wire status code + message
  kBusy = 21,        // PushEvents rejected: ingest queue at capacity
};

/// True for the packet types this build knows; the frame decoder rejects
/// everything else as InvalidArgument.
bool IsKnownPacketType(uint8_t type);

/// Human-readable packet-type name ("PushEvents"), for logs and errors.
std::string_view PacketTypeName(PacketType type);

/// A decoded frame: the packet type and its raw payload bytes.
struct Frame {
  PacketType type = PacketType::kHello;
  std::string payload;
};

/// Appends one encoded frame carrying `payload` to `*out`.
void EncodeFrame(PacketType type, std::string_view payload, std::string* out);

/// Decodes the frame at the head of `data`. On success sets `*consumed` to
/// the encoded size (4 + body length). Returns Corruption for truncation
/// or a CRC mismatch, InvalidArgument for an unknown packet type or a body
/// length beyond kMaxFrameBody.
Result<Frame> DecodeFrame(std::string_view data, size_t* consumed);

// --- Status-code mapping ---

/// StatusCode → wire byte (the enum's numeric value, stable by contract).
uint8_t StatusCodeToWire(StatusCode code);

/// Wire byte → StatusCode; unknown bytes (a future peer's new code) map to
/// kInternal so the message still surfaces instead of failing the decode.
StatusCode StatusCodeFromWire(uint8_t wire);

// --- Request payloads ---

/// Hello: the version handshake, first packet on every connection.
struct HelloRequest {
  uint32_t version = kProtocolVersion;
  /// Free-form client name ("loadgen-3"); the server does not use it.
  std::string client_name;

  std::string Encode() const;
  static Result<HelloRequest> Decode(std::string_view payload);
};

/// SubmitPlan: register a standing query under a client-chosen id. Ids are
/// scoped to the connection (AlreadyExists on a duplicate within it; other
/// connections may use the same id); the plan sees only this connection's
/// events, its matches route back to it, and it is freed when the
/// connection disconnects.
struct SubmitPlanRequest {
  std::string plan_id;
  /// Pattern DSL text, parsed against the served stream schema.
  std::string query;

  std::string Encode() const;
  static Result<SubmitPlanRequest> Decode(std::string_view payload);
};

/// RemovePlan: unregister a plan this connection submitted.
struct RemovePlanRequest {
  std::string plan_id;

  std::string Encode() const;
  static Result<RemovePlanRequest> Decode(std::string_view payload);
};

/// PushEvents: a slab of stream events, row-encoded (one PutEventRecord
/// per event) or columnar (one typed column per schema attribute, STRING
/// columns dictionary-coded — the layout the vectorized §4.5 pre-filter
/// consumes without materializing rows). Both encode against the served
/// stream schema from the handshake.
struct PushEventsRequest {
  enum class Layout : uint8_t { kRow = 0, kColumnar = 1 };

  Layout layout = Layout::kRow;
  /// Row layout: the events. Columnar layout: empty.
  std::vector<Event> events;
  /// Columnar layout: the batch. Row layout: empty.
  ColumnarBatch columnar;

  /// `schema` must be the served stream schema on both sides.
  static std::string EncodeRows(std::span<const Event> events,
                                const Schema& schema);
  static std::string EncodeColumnar(const ColumnarBatch& batch);
  static Result<PushEventsRequest> Decode(std::string_view payload,
                                          const Schema& schema);
};

// Flush and StatsRequest carry empty payloads.

// --- Response payloads ---

/// HelloAck: the handshake answer — negotiated version and the stream
/// schema every SubmitPlan / PushEvents on this connection encodes against.
struct HelloResponse {
  uint32_t version = kProtocolVersion;
  std::string schema_text;

  std::string Encode() const;
  static Result<HelloResponse> Decode(std::string_view payload);
};

/// Ack: the request of type `request` completed. `info` carries
/// request-specific detail ("queued" for kPushEvents).
struct AckResponse {
  PacketType request = PacketType::kHello;
  std::string info;

  std::string Encode() const;
  static Result<AckResponse> Decode(std::string_view payload);
};

/// MatchBatch: completed matches for one plan, encoded as CheckpointMatch
/// blobs against the stream schema. Sent to the connection that owns the
/// plan, at engine-determined times (window expiry, flush); one plan's
/// matches may span several consecutive MatchBatch frames.
struct MatchBatchResponse {
  std::string plan_id;
  std::vector<Match> matches;

  static std::string Encode(std::string_view plan_id,
                            std::span<const Match> matches,
                            const Schema& schema);
  /// Splits `matches` over consecutive payloads of at most `max_payload`
  /// bytes, each holding as many of the next matches as fit, and hands
  /// each payload to `emit` (none for an empty span). Decoding the
  /// payloads in order returns `matches`. A match that does not fit a
  /// payload on its own is InvalidArgument; the payloads before it have
  /// been emitted.
  static Status EncodeSplit(
      std::string_view plan_id, std::span<const Match> matches,
      const Schema& schema, size_t max_payload,
      const std::function<void(std::string_view payload)>& emit);
  static Result<MatchBatchResponse> Decode(std::string_view payload,
                                           const Schema& schema);
};

/// Error: the request failed. Carries the Status-code mapping so a client
/// sees the same typed error an in-process caller would.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  std::string Encode() const;
  static Result<ErrorResponse> Decode(std::string_view payload);
  /// The decoded error as a Status (what net::Client returns to callers).
  Status ToStatus() const { return Status(code, message); }
};

/// Busy: the PushEvents was rejected because the connection's bounded
/// ingest queue (exec::BoundedQueue) is at capacity. The slab was dropped;
/// re-send it after draining — nothing was partially applied.
struct BusyResponse {
  uint64_t queue_depth = 0;
  uint64_t queue_capacity = 0;

  std::string Encode() const;
  static Result<BusyResponse> Decode(std::string_view payload);
};

/// Stats: the full observability snapshot, answering kStatsRequest with
/// the same numbers `ses_cli --stats` prints — catalog-wide counters plus
/// one row per plan carrying its complete ExecutorStats, so the wire
/// surface cannot drift from the in-process one (parity-tested
/// field-for-field in tests/net_server_test.cc).
struct StatsResponse {
  catalog::CatalogStats catalog;
  std::vector<catalog::PlanStats> plans;

  std::string Encode() const;
  static Result<StatsResponse> Decode(std::string_view payload);
};

}  // namespace ses::net

#endif  // SES_NET_PROTOCOL_H_
