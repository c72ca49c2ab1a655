#ifndef SES_NET_SOCKET_H_
#define SES_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "net/protocol.h"

namespace ses::net {

/// RAII owner of a POSIX socket file descriptor. Move-only; closes on
/// destruction. The networking layer stays loopback-oriented and
/// dependency-free: plain sockets, poll(2), and the frame codec from
/// net/protocol.h.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Reset(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the descriptor now (idempotent).
  void Reset();

  /// shutdown(2) both directions without closing: wakes a thread blocked
  /// in recv on this socket so it can observe the teardown. Safe to call
  /// from a thread other than the reader.
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// Opens a listening TCP socket on 127.0.0.1:`port` (0 picks an ephemeral
/// port); `*bound_port` receives the actual port.
Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Connects to 127.0.0.1:`port`.
Result<Socket> ConnectTcp(uint16_t port);

/// Accepts one pending connection from `listener` (pair with WaitReadable
/// to bound the wait).
Result<Socket> Accept(const Socket& listener);

/// Polls `fd` for readability for up to `timeout_ms`; a negative timeout
/// waits without limit. Returns true when readable (data, EOF, or error
/// pending — recv will not block), false on timeout. A timeout beyond
/// poll(2)'s int range is waited out in full.
Result<bool> WaitReadable(int fd, int64_t timeout_ms);

/// Bounds how long a recv / send on `fd` may block (SO_RCVTIMEO /
/// SO_SNDTIMEO): a peer that stops mid-frame or stops draining turns into
/// an IoError instead of a wedged thread.
Status SetRecvTimeout(int fd, int timeout_ms);
Status SetSendTimeout(int fd, int timeout_ms);

/// Writes all of `data`, retrying partial writes; SIGPIPE is suppressed.
Status WriteAll(int fd, std::string_view data);

/// Encodes and writes one frame. A payload whose frame body would exceed
/// kMaxFrameBody is rejected with InvalidArgument before any byte is
/// written (the peer would drop it anyway, and a >4 GiB payload would wrap
/// the uint32 length prefix and desync the stream).
Status WriteFrame(int fd, PacketType type, std::string_view payload);

/// Reads one frame (length prefix, then body) and validates it through
/// DecodeFrame, so socket reads enforce exactly the codec's rules. A clean
/// close before the first header byte returns IoError("connection
/// closed"); a close or recv timeout mid-frame returns Corruption.
Result<Frame> ReadFrame(int fd);

}  // namespace ses::net

#endif  // SES_NET_SOCKET_H_
