#ifndef SES_NET_CLIENT_H_
#define SES_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/match.h"
#include "event/columnar.h"
#include "event/event.h"
#include "event/schema.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace ses::net {

/// Runtime knobs of a Client, fixed at Connect.
struct ClientOptions {
  /// Server port on 127.0.0.1.
  uint16_t port = 0;
  /// Free-form name announced in the Hello (shows up in server logs).
  std::string client_name = "ses-client";
  /// Bound on a single blocked read while waiting for a response.
  int recv_timeout_ms = 30'000;
  /// When positive, Push retries a Busy response after sleeping this many
  /// milliseconds (indefinitely — the server sheds load, the client
  /// paces). When 0, Push returns false and the caller decides.
  int busy_retry_ms = 0;
  /// Streaming match consumer; when unset, matches accumulate in the
  /// client and are read back with TakeMatches(). Runs on the thread
  /// calling the client (matches are dispatched while waiting for a
  /// response) and must not re-enter the client.
  std::function<void(const MatchBatchResponse&)> match_sink;
};

/// Synchronous client for the sesnet protocol (net/protocol.h): connects,
/// handshakes, and then keeps exactly one request outstanding. MatchBatch
/// frames — which the server sends on its own schedule — are consumed
/// whenever the client is reading for a response and dispatched to
/// `match_sink` (or accumulated for TakeMatches), so callers never see
/// them interleaved with request/response traffic.
///
/// Not thread-safe; drive each client from one thread.
class Client {
 public:
  /// Connects to 127.0.0.1:port and performs the Hello handshake. Fails
  /// with the server's typed Error on version skew.
  static Result<std::unique_ptr<Client>> Connect(ClientOptions options);

  /// The stream schema announced by the server in the handshake.
  const Schema& schema() const { return schema_; }

  /// Registers a standing query under `id` (AlreadyExists on duplicates,
  /// parse errors surface with the server's message).
  Status SubmitPlan(const std::string& id, const std::string& query);

  /// Unregisters a plan this connection owns.
  Status RemovePlan(const std::string& id);

  /// Pushes a slab of events (row encoding). Returns true when accepted,
  /// false when the server answered Busy and busy_retry_ms is 0 — the slab
  /// was dropped whole, re-send it after a pause.
  Result<bool> Push(std::span<const Event> events);

  /// Pushes a columnar batch (its schema must equal schema()).
  Result<bool> PushColumnar(const ColumnarBatch& batch);

  /// Ends this connection's stream: when this returns OK, every match of
  /// every plan this connection owns has been received (and dispatched).
  /// The next Push starts a new stream, whose timestamps may restart.
  Status Flush();

  /// This connection's statistics snapshot (catalog + per-plan executor
  /// stats), covering every slab pushed before.
  Result<StatsResponse> Stats();

  /// Matches accumulated so far (only when no match_sink is set), keyed by
  /// plan id and moved out.
  std::map<std::string, std::vector<Match>> TakeMatches();

  /// Closes the connection (the server then drops this connection's plans).
  void Close();

 private:
  Client() = default;

  /// Sends one request and reads until a non-MatchBatch response arrives
  /// (dispatching any MatchBatch frames seen on the way).
  Result<Frame> Transact(PacketType type, std::string_view payload);

  /// Shared Push/PushColumnar tail: transact, honoring busy_retry_ms.
  Result<bool> PushPayload(std::string payload);

  /// Decodes and dispatches one MatchBatch frame.
  Status OnMatchBatch(const Frame& frame);

  /// Maps a response frame for `request` to a Status (Ack → OK, Error →
  /// its typed status, anything else → Internal).
  Status ExpectAck(const Frame& frame, PacketType request);

  ClientOptions options_;
  Socket sock_;
  Schema schema_;
  std::map<std::string, std::vector<Match>> matches_;
};

}  // namespace ses::net

#endif  // SES_NET_CLIENT_H_
