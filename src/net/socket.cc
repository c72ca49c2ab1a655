#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ses::net {

namespace {

std::string Errno(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

uint32_t ReadFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

/// Reads exactly `n` bytes. `*clean_eof` is set when the peer closed
/// before the first byte (only then); any later shortfall is an error.
Status ReadExact(int fd, char* buf, size_t n, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::IoError("connection closed");
      }
      return Status::Corruption("truncated frame: peer closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("socket read timed out");
      }
      return Status::IoError(Errno("recv"));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Socket> ListenTcp(uint16_t port, uint16_t* bound_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::IoError(Errno("socket"));
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IoError(Errno("bind 127.0.0.1:" + std::to_string(port)));
  }
  // The kernel caps the backlog at net.core.somaxconn. A smaller fixed
  // backlog overflows when hundreds of clients connect at once, and each
  // dropped SYN costs its client a 1 s retransmit.
  if (::listen(sock.fd(), SOMAXCONN) != 0) {
    return Status::IoError(Errno("listen"));
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      return Status::IoError(Errno("getsockname"));
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Result<Socket> ConnectTcp(uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Status::IoError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::IoError(
        Errno("connect 127.0.0.1:" + std::to_string(port)));
  }
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<Socket> Accept(const Socket& listener) {
  for (;;) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      int one = 1;
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    if (errno == EINTR) continue;
    return Status::IoError(Errno("accept"));
  }
}

Result<bool> WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    int r = ::poll(&pfd, 1, timeout_ms);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno == EINTR) continue;
    return Status::IoError(Errno("poll"));
  }
}

namespace {
Status SetTimeoutOpt(int fd, int optname, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Status::IoError(Errno("setsockopt"));
  }
  return Status::OK();
}
}  // namespace

Status SetRecvTimeout(int fd, int timeout_ms) {
  return SetTimeoutOpt(fd, SO_RCVTIMEO, timeout_ms);
}

Status SetSendTimeout(int fd, int timeout_ms) {
  return SetTimeoutOpt(fd, SO_SNDTIMEO, timeout_ms);
}

Status WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("socket write timed out");
      }
      return Status::IoError(Errno("send"));
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFrame(int fd, PacketType type, std::string_view payload) {
  // Reject oversized payloads before encoding: beyond kMaxFrameBody the peer
  // would drop the connection anyway, and past 4 GiB the uint32 length prefix
  // would wrap and desync the stream.
  if (1 + payload.size() + 4 > kMaxFrameBody) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the frame body limit " + std::to_string(kMaxFrameBody));
  }
  std::string wire;
  wire.reserve(4 + 1 + payload.size() + 4);
  EncodeFrame(type, payload, &wire);
  return WriteAll(fd, wire);
}

Result<Frame> ReadFrame(int fd) {
  std::string buf(4, '\0');
  bool clean_eof = false;
  SES_RETURN_IF_ERROR(ReadExact(fd, buf.data(), 4, &clean_eof));
  // Bound the allocation before trusting the length; DecodeFrame re-checks
  // with the same rules once the body is in hand.
  const uint32_t body = ReadFixed32(buf.data());
  if (body < 1 + 4) {
    return Status::Corruption("frame body length " + std::to_string(body) +
                              " below minimum");
  }
  if (body > kMaxFrameBody) {
    return Status::InvalidArgument(
        "frame body length " + std::to_string(body) + " exceeds limit " +
        std::to_string(kMaxFrameBody));
  }
  buf.resize(4 + body);
  SES_RETURN_IF_ERROR(ReadExact(fd, buf.data() + 4, body, nullptr));
  size_t consumed = 0;
  return DecodeFrame(buf, &consumed);
}

}  // namespace ses::net
