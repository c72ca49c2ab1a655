// Property tests for the sesnet wire protocol (src/net/protocol.h): frame
// codec round-trips for every packet type (empty, typical, and
// maximum-size payloads), payload codec round-trips, and the corruption
// suite — every truncation prefix and every single-bit flip of an encoded
// frame must decode to a typed Corruption/InvalidArgument error, never
// crash, hang, or decode successfully. Plus the version-skew handshake
// against a live server: a client announcing an unknown protocol version
// is rejected with Error(InvalidArgument) before anything else happens.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/match.h"
#include "event/columnar.h"
#include "event/relation.h"
#include "event/schema.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/checkpoint.h"

namespace ses {
namespace {

using ::ses::net::AckResponse;
using ::ses::net::BusyResponse;
using ::ses::net::DecodeFrame;
using ::ses::net::EncodeFrame;
using ::ses::net::ErrorResponse;
using ::ses::net::Frame;
using ::ses::net::HelloRequest;
using ::ses::net::HelloResponse;
using ::ses::net::IsKnownPacketType;
using ::ses::net::kMaxFrameBody;
using ::ses::net::kProtocolVersion;
using ::ses::net::MatchBatchResponse;
using ::ses::net::PacketType;
using ::ses::net::PushEventsRequest;
using ::ses::net::RemovePlanRequest;
using ::ses::net::StatsResponse;
using ::ses::net::StatusCodeFromWire;
using ::ses::net::StatusCodeToWire;
using ::ses::net::SubmitPlanRequest;

Schema TestSchema() {
  Result<Schema> schema = ParseSchemaText("ID INT, L STRING, V DOUBLE");
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return *schema;
}

/// A small deterministic stream for payload round-trips.
EventRelation TestStream(int events) {
  EventRelation relation(TestSchema());
  for (int i = 0; i < events; ++i) {
    relation.AppendUnchecked(
        static_cast<Timestamp>(i + 1),
        {Value(static_cast<int64_t>(i % 3)),
         Value(i % 2 == 0 ? std::string("A") : std::string("B")),
         Value(static_cast<double>(i) * 0.5)});
  }
  return relation;
}

void ExpectEventsEqual(std::span<const Event> want,
                       std::span<const Event> got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id(), got[i].id());
    EXPECT_EQ(want[i].timestamp(), got[i].timestamp());
    ASSERT_EQ(want[i].num_values(), got[i].num_values());
    for (int a = 0; a < want[i].num_values(); ++a) {
      EXPECT_TRUE(want[i].value(a) == got[i].value(a))
          << "event " << i << " attribute " << a;
    }
  }
}

// --- Frame codec ---

TEST(FrameCodec, RoundTripsEveryPacketTypeAndPayloadSize) {
  const std::vector<std::string> payloads = {
      "", "x", std::string("payload with \0 byte", 19),
      std::string(4096, 'y')};
  for (uint8_t type = 0; type < 64; ++type) {
    if (!IsKnownPacketType(type)) continue;
    for (const std::string& payload : payloads) {
      std::string wire;
      EncodeFrame(static_cast<PacketType>(type), payload, &wire);
      size_t consumed = 0;
      Result<Frame> frame = DecodeFrame(wire, &consumed);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(consumed, wire.size());
      EXPECT_EQ(static_cast<uint8_t>(frame->type), type);
      EXPECT_EQ(frame->payload, payload);
    }
  }
}

TEST(FrameCodec, RoundTripsMaximumBody) {
  // The largest admissible payload: kMaxFrameBody minus type and CRC.
  const std::string payload(kMaxFrameBody - 5, 'z');
  std::string wire;
  EncodeFrame(PacketType::kPushEvents, payload, &wire);
  size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(wire, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame->payload.size(), payload.size());
}

TEST(FrameCodec, RejectsOversizedBody) {
  const std::string payload(kMaxFrameBody - 4, 'z');  // one byte too many
  std::string wire;
  EncodeFrame(PacketType::kPushEvents, payload, &wire);
  size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(wire, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodec, WriteFrameRejectsOversizedPayloadBeforeWriting) {
  // The write path refuses a payload the peer would reject, before any
  // byte reaches the socket — the invalid fd proves no write is attempted.
  const std::string payload(kMaxFrameBody - 4, 'z');  // one byte too many
  const Status status =
      ses::net::WriteFrame(-1, PacketType::kPushEvents, payload);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodec, RejectsUnknownPacketType) {
  // 6 was the Checkpoint request of protocol 3.
  for (uint8_t type : {6, 42}) {
    std::string wire;
    EncodeFrame(static_cast<PacketType>(type), "payload", &wire);
    size_t consumed = 0;
    Result<Frame> frame = DecodeFrame(wire, &consumed);
    ASSERT_FALSE(frame.ok()) << "type " << int{type};
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameCodec, DecodesFrameAtHeadOfLargerBuffer) {
  std::string wire;
  EncodeFrame(PacketType::kAck, "first", &wire);
  const size_t first = wire.size();
  EncodeFrame(PacketType::kError, "second", &wire);
  size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(wire, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, first);
  EXPECT_EQ(frame->type, PacketType::kAck);
  EXPECT_EQ(frame->payload, "first");
}

// The corruption suite: a frame reader facing an adversarial byte stream
// must answer with a typed error for EVERY truncation and EVERY single-bit
// flip — no crash, no hang, no accidental success.

TEST(FrameCorruption, EveryTruncationPrefixFailsCleanly) {
  std::string wire;
  EncodeFrame(PacketType::kSubmitPlan, "plan-1\x01payload bytes", &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    size_t consumed = 0;
    Result<Frame> frame =
        DecodeFrame(std::string_view(wire.data(), len), &consumed);
    ASSERT_FALSE(frame.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(frame.status().code() == StatusCode::kCorruption ||
                frame.status().code() == StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << frame.status().ToString();
  }
}

TEST(FrameCorruption, EveryBitFlipFailsCleanly) {
  std::string wire;
  EncodeFrame(PacketType::kPushEvents, "some event payload", &wire);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      size_t consumed = 0;
      Result<Frame> frame = DecodeFrame(flipped, &consumed);
      ASSERT_FALSE(frame.ok())
          << "flip of byte " << byte << " bit " << bit << " decoded";
      EXPECT_TRUE(frame.status().code() == StatusCode::kCorruption ||
                  frame.status().code() == StatusCode::kInvalidArgument)
          << "byte " << byte << " bit " << bit << ": "
          << frame.status().ToString();
    }
  }
}

TEST(FrameCorruption, FlippedTypeByteIsCorruptionNotUnknownType) {
  // The CRC covers the type byte, so a flipped type must surface as
  // Corruption (the frame is damaged) — not as "unknown packet type".
  std::string wire;
  EncodeFrame(PacketType::kFlush, "", &wire);
  std::string flipped = wire;
  flipped[4] = static_cast<char>(flipped[4] ^ 0x40);  // type is body byte 0
  size_t consumed = 0;
  Result<Frame> frame = DecodeFrame(flipped, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

// --- Status-code mapping ---

TEST(StatusWire, RoundTripsEveryCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kCorruption, StatusCode::kIoError,
        StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(code)), code);
  }
}

TEST(StatusWire, UnknownWireByteMapsToInternal) {
  EXPECT_EQ(StatusCodeFromWire(200), StatusCode::kInternal);
  // kOk is not a valid Error code on the wire either.
  EXPECT_EQ(StatusCodeFromWire(StatusCodeToWire(StatusCode::kOk)),
            StatusCode::kInternal);
}

// --- Payload codecs ---

TEST(PayloadCodec, HelloRoundTrip) {
  HelloRequest hello;
  hello.version = 7;
  hello.client_name = "loadgen-3";
  Result<HelloRequest> decoded = HelloRequest::Decode(hello.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->client_name, "loadgen-3");
}

TEST(PayloadCodec, HelloAckRoundTrip) {
  HelloResponse ack;
  ack.version = kProtocolVersion;
  ack.schema_text = "ID INT, L STRING";
  Result<HelloResponse> decoded = HelloResponse::Decode(ack.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->schema_text, "ID INT, L STRING");
}

TEST(PayloadCodec, SubmitAndRemovePlanRoundTrip) {
  SubmitPlanRequest submit;
  submit.plan_id = "p1";
  submit.query = "PATTERN {a} WHERE a.L = 'A' WITHIN 10s";
  Result<SubmitPlanRequest> s = SubmitPlanRequest::Decode(submit.Encode());
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->plan_id, "p1");
  EXPECT_EQ(s->query, submit.query);

  RemovePlanRequest remove;
  remove.plan_id = "p1";
  Result<RemovePlanRequest> r = RemovePlanRequest::Decode(remove.Encode());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->plan_id, "p1");
}

TEST(PayloadCodec, PushEventsRowRoundTrip) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(17);
  const std::string payload = PushEventsRequest::EncodeRows(
      std::span<const Event>(stream.events()), schema);
  Result<PushEventsRequest> decoded =
      PushEventsRequest::Decode(payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->layout, PushEventsRequest::Layout::kRow);
  ExpectEventsEqual(std::span<const Event>(stream.events()),
                    std::span<const Event>(decoded->events));
}

TEST(PayloadCodec, PushEventsEmptySlabRoundTrip) {
  const Schema schema = TestSchema();
  const std::string payload =
      PushEventsRequest::EncodeRows(std::span<const Event>(), schema);
  Result<PushEventsRequest> decoded =
      PushEventsRequest::Decode(payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->events.empty());
}

TEST(PayloadCodec, PushEventsHugeRowCountIsCorruptionNotAlloc) {
  // A crafted payload whose varint event count is absurdly large must fail
  // the payload-size sanity check, not reach events.reserve() — a reserve
  // of 2^60 would throw and kill the process.
  const Schema schema = TestSchema();
  std::string payload;
  payload.push_back(
      static_cast<char>(PushEventsRequest::Layout::kRow));
  ses::storage::PutCount(&payload, uint64_t{1} << 60);
  Result<PushEventsRequest> decoded =
      PushEventsRequest::Decode(payload, schema);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PayloadCodec, PushEventsHugeColumnarRowCountIsCorruptionNotAlloc) {
  const Schema schema = TestSchema();
  std::string payload;
  payload.push_back(
      static_cast<char>(PushEventsRequest::Layout::kColumnar));
  ses::storage::PutCount(&payload, uint64_t{1} << 60);
  Result<PushEventsRequest> decoded =
      PushEventsRequest::Decode(payload, schema);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PayloadCodec, PushEventsColumnarRoundTrip) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(23);
  const ColumnarBatch batch = ColumnarBatch::FromEvents(
      schema, std::span<const Event>(stream.events()));
  const std::string payload = PushEventsRequest::EncodeColumnar(batch);
  Result<PushEventsRequest> decoded =
      PushEventsRequest::Decode(payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->layout, PushEventsRequest::Layout::kColumnar);
  // Materialize both sides back to rows and compare.
  std::vector<Event> got;
  for (size_t row = 0; row < decoded->columnar.size(); ++row) {
    got.push_back(decoded->columnar.RowEvent(row));
  }
  ExpectEventsEqual(std::span<const Event>(stream.events()),
                    std::span<const Event>(got));
}

TEST(PayloadCodec, AckErrorBusyRoundTrip) {
  AckResponse ack;
  ack.request = PacketType::kPushEvents;
  ack.info = "queued";
  Result<AckResponse> a = AckResponse::Decode(ack.Encode());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->request, PacketType::kPushEvents);
  EXPECT_EQ(a->info, ack.info);

  ErrorResponse error;
  error.code = StatusCode::kFailedPrecondition;
  error.message = "stream already flushed";
  Result<ErrorResponse> e = ErrorResponse::Decode(error.Encode());
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(e->ToStatus().message(), "stream already flushed");

  BusyResponse busy;
  busy.queue_depth = 64;
  busy.queue_capacity = 64;
  Result<BusyResponse> b = BusyResponse::Decode(busy.Encode());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->queue_depth, 64u);
  EXPECT_EQ(b->queue_capacity, 64u);
}

TEST(PayloadCodec, MatchBatchRoundTrip) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(4);
  std::vector<Match> matches;
  matches.push_back(Match({{VariableId{0}, stream.events()[0]},
                           {VariableId{1}, stream.events()[1]}}));
  matches.push_back(Match({{VariableId{0}, stream.events()[2]},
                           {VariableId{1}, stream.events()[3]}}));
  const std::string payload = MatchBatchResponse::Encode(
      "plan-a", std::span<const Match>(matches), schema);
  Result<MatchBatchResponse> decoded =
      MatchBatchResponse::Decode(payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->plan_id, "plan-a");
  ASSERT_EQ(decoded->matches.size(), 2u);
  for (size_t i = 0; i < matches.size(); ++i) {
    EXPECT_EQ(decoded->matches[i].SubstitutionKey(),
              matches[i].SubstitutionKey());
    EXPECT_EQ(decoded->matches[i].start_time(), matches[i].start_time());
    EXPECT_EQ(decoded->matches[i].end_time(), matches[i].end_time());
  }
}

/// Decodes `payloads` in order and checks they carry `want` for `plan_id`.
void ExpectSplitDecodesTo(const std::vector<std::string>& payloads,
                          std::string_view plan_id,
                          const std::vector<Match>& want,
                          const Schema& schema) {
  std::vector<Match> got;
  for (const std::string& payload : payloads) {
    Result<MatchBatchResponse> decoded =
        MatchBatchResponse::Decode(payload, schema);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->plan_id, plan_id);
    EXPECT_FALSE(decoded->matches.empty());
    for (Match& match : decoded->matches) got.push_back(std::move(match));
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].SubstitutionKey(), want[i].SubstitutionKey()) << i;
    EXPECT_EQ(got[i].start_time(), want[i].start_time()) << i;
    EXPECT_EQ(got[i].end_time(), want[i].end_time()) << i;
  }
}

TEST(PayloadCodec, MatchBatchSplitFitsEveryPayloadInMatchOrder) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(60);
  std::span<const Event> events(stream.events());
  // Matches of one to three bindings, so payload sizes vary.
  std::vector<Match> matches;
  for (size_t i = 0; i + 3 <= events.size(); i += 3) {
    std::vector<Binding> bindings;
    const size_t arity = 1 + (i / 3) % 3;
    for (size_t b = 0; b < arity; ++b) {
      bindings.push_back({static_cast<VariableId>(b), events[i + b]});
    }
    matches.push_back(Match(std::move(bindings)));
  }
  const std::string whole = MatchBatchResponse::Encode(
      "plan-a", std::span<const Match>(matches), schema);

  for (size_t budget : {size_t{64}, size_t{100}, size_t{257}}) {
    std::vector<std::string> payloads;
    Status status = MatchBatchResponse::EncodeSplit(
        "plan-a", std::span<const Match>(matches), schema, budget,
        [&](std::string_view payload) { payloads.emplace_back(payload); });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_GT(payloads.size(), 1u) << budget;
    for (const std::string& payload : payloads) {
      EXPECT_LE(payload.size(), budget);
    }
    ExpectSplitDecodesTo(payloads, "plan-a", matches, schema);
  }

  // Under the frame limit one payload holds every match, byte for byte
  // what a single MatchBatch always carried.
  std::vector<std::string> payloads;
  ASSERT_TRUE(MatchBatchResponse::EncodeSplit(
                  "plan-a", std::span<const Match>(matches), schema,
                  kMaxFrameBody - 5,
                  [&](std::string_view payload) {
                    payloads.emplace_back(payload);
                  })
                  .ok());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], whole);

  // No matches, no payload.
  payloads.clear();
  ASSERT_TRUE(MatchBatchResponse::EncodeSplit(
                  "plan-a", {}, schema, 64,
                  [&](std::string_view payload) {
                    payloads.emplace_back(payload);
                  })
                  .ok());
  EXPECT_TRUE(payloads.empty());
}

TEST(PayloadCodec, MatchBatchSplitRejectsAMatchLargerThanThePayload) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(4);
  const Event large(99, 10,
                    {Value(int64_t{1}), Value(std::string(500, 'x')),
                     Value(0.0)});
  std::vector<Match> matches;
  matches.push_back(Match({{VariableId{0}, stream.events()[0]}}));
  matches.push_back(Match({{VariableId{0}, stream.events()[1]}}));
  matches.push_back(Match({{VariableId{0}, large}}));
  matches.push_back(Match({{VariableId{0}, stream.events()[2]}}));

  std::vector<std::string> payloads;
  Status status = MatchBatchResponse::EncodeSplit(
      "plan-big", std::span<const Match>(matches), schema, /*max_payload=*/64,
      [&](std::string_view payload) { payloads.emplace_back(payload); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("plan-big"), std::string::npos)
      << status.message();
  // The matches before the oversized one were emitted, and fit.
  for (const std::string& payload : payloads) EXPECT_LE(payload.size(), 64u);
  ExpectSplitDecodesTo(payloads, "plan-big",
                       std::vector<Match>(matches.begin(), matches.begin() + 2),
                       schema);
}

TEST(PayloadCodec, StatsRoundTripsEveryField) {
  // Every field gets a distinct value, so a transposed or dropped field in
  // the codec cannot cancel out.
  StatsResponse stats;
  stats.catalog.events_pushed = 1;
  stats.catalog.num_plans = 2;
  stats.catalog.generation = 3;
  stats.catalog.snapshot_refreshes = 4;
  stats.catalog.type_attribute = -1;
  stats.catalog.distinct_conditions = 6;
  stats.catalog.plan_conditions = 7;
  stats.catalog.events_considered = 8;
  stats.catalog.events_skipped_by_index = 9;
  stats.catalog.events_skipped_by_prefilter = 10;
  stats.catalog.matches = 11;
  catalog::PlanStats plan;
  plan.id = "p";
  plan.matches = 12;
  plan.events_considered = 13;
  plan.events_skipped_by_index = 14;
  plan.events_skipped_by_prefilter = 15;
  plan.executor.events_seen = 16;
  plan.executor.events_filtered = 17;
  plan.executor.events_processed = 18;
  plan.executor.instances_created = 19;
  plan.executor.instances_expired = 20;
  plan.executor.max_simultaneous_instances = 21;
  plan.executor.transitions_evaluated = 22;
  plan.executor.transitions_fired = 23;
  plan.executor.conditions_evaluated = 24;
  plan.executor.matches_emitted = 25;
  stats.plans.push_back(plan);

  Result<StatsResponse> decoded = StatsResponse::Decode(stats.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->catalog.events_pushed, 1);
  EXPECT_EQ(decoded->catalog.num_plans, 2);
  EXPECT_EQ(decoded->catalog.generation, 3);
  EXPECT_EQ(decoded->catalog.snapshot_refreshes, 4);
  EXPECT_EQ(decoded->catalog.type_attribute, -1);
  EXPECT_EQ(decoded->catalog.distinct_conditions, 6);
  EXPECT_EQ(decoded->catalog.plan_conditions, 7);
  EXPECT_EQ(decoded->catalog.events_considered, 8);
  EXPECT_EQ(decoded->catalog.events_skipped_by_index, 9);
  EXPECT_EQ(decoded->catalog.events_skipped_by_prefilter, 10);
  EXPECT_EQ(decoded->catalog.matches, 11);
  ASSERT_EQ(decoded->plans.size(), 1u);
  const catalog::PlanStats& got = decoded->plans[0];
  EXPECT_EQ(got.id, "p");
  EXPECT_EQ(got.matches, 12);
  EXPECT_EQ(got.events_considered, 13);
  EXPECT_EQ(got.events_skipped_by_index, 14);
  EXPECT_EQ(got.events_skipped_by_prefilter, 15);
  EXPECT_EQ(got.executor.events_seen, 16);
  EXPECT_EQ(got.executor.events_filtered, 17);
  EXPECT_EQ(got.executor.events_processed, 18);
  EXPECT_EQ(got.executor.instances_created, 19);
  EXPECT_EQ(got.executor.instances_expired, 20);
  EXPECT_EQ(got.executor.max_simultaneous_instances, 21);
  EXPECT_EQ(got.executor.transitions_evaluated, 22);
  EXPECT_EQ(got.executor.transitions_fired, 23);
  EXPECT_EQ(got.executor.conditions_evaluated, 24);
  EXPECT_EQ(got.executor.matches_emitted, 25);
}

TEST(PayloadCodec, EveryPayloadTruncationFailsCleanly) {
  const Schema schema = TestSchema();
  const EventRelation stream = TestStream(6);
  std::vector<Match> matches = {
      Match({{VariableId{0}, stream.events()[0]}})};
  HelloRequest hello;
  hello.client_name = "c";
  SubmitPlanRequest submit;
  submit.plan_id = "p";
  submit.query = "q";
  StatsResponse stats;
  stats.plans.emplace_back();
  stats.plans.back().id = "p";

  struct Case {
    std::string name;
    std::string payload;
    std::function<Status(std::string_view)> decode;
  };
  const std::vector<Case> cases = {
      {"hello", hello.Encode(),
       [](std::string_view p) { return HelloRequest::Decode(p).status(); }},
      {"submit", submit.Encode(),
       [](std::string_view p) {
         return SubmitPlanRequest::Decode(p).status();
       }},
      {"push_rows",
       PushEventsRequest::EncodeRows(std::span<const Event>(stream.events()),
                                     schema),
       [&](std::string_view p) {
         return PushEventsRequest::Decode(p, schema).status();
       }},
      {"push_columnar",
       PushEventsRequest::EncodeColumnar(ColumnarBatch::FromEvents(
           schema, std::span<const Event>(stream.events()))),
       [&](std::string_view p) {
         return PushEventsRequest::Decode(p, schema).status();
       }},
      {"match_batch",
       MatchBatchResponse::Encode("p", std::span<const Match>(matches),
                                  schema),
       [&](std::string_view p) {
         return MatchBatchResponse::Decode(p, schema).status();
       }},
      {"stats", stats.Encode(),
       [](std::string_view p) { return StatsResponse::Decode(p).status(); }},
  };
  for (const Case& c : cases) {
    for (size_t len = 0; len < c.payload.size(); ++len) {
      const Status status =
          c.decode(std::string_view(c.payload.data(), len));
      ASSERT_FALSE(status.ok())
          << c.name << ": prefix of " << len << " bytes decoded";
      EXPECT_TRUE(status.code() == StatusCode::kCorruption ||
                  status.code() == StatusCode::kInvalidArgument)
          << c.name << " prefix " << len << ": " << status.ToString();
    }
  }
}

// --- Version-skew handshake against a live server ---

TEST(Handshake, VersionSkewIsRejectedWithTypedError) {
  net::ServerOptions options;
  options.schema = TestSchema();
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Result<net::Socket> sock = net::ConnectTcp((*server)->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  HelloRequest hello;
  hello.version = kProtocolVersion + 1;
  hello.client_name = "from-the-future";
  ASSERT_TRUE(
      net::WriteFrame(sock->fd(), PacketType::kHello, hello.Encode()).ok());
  Result<Frame> reply = net::ReadFrame(sock->fd());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, PacketType::kError);
  Result<ErrorResponse> error = ErrorResponse::Decode(reply->payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  EXPECT_NE(error->message.find("version"), std::string::npos);

  // The connection is closed after the rejection: the next read sees EOF.
  Result<Frame> eof = net::ReadFrame(sock->fd());
  EXPECT_FALSE(eof.ok());

  // And the real client constructor surfaces the same typed error.
  net::ClientOptions good;
  good.port = (*server)->port();
  Result<std::unique_ptr<net::Client>> client =
      net::Client::Connect(std::move(good));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  (*client)->Close();
  (*server)->Stop();
}

}  // namespace
}  // namespace ses
