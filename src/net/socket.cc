#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "fault/fault.h"

namespace subex {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool FillAddr(const std::string& host, std::uint16_t port, sockaddr_in* addr,
              std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address: " + host;
    return false;
  }
  return true;
}

/// Milliseconds left until `deadline`, clamped at 0.
int RemainingMs(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool SetNonBlocking(int fd, bool non_blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int wanted =
      non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, wanted) == 0;
}

Socket ListenTcp(const std::string& host, std::uint16_t port, int backlog,
                 std::uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return Socket();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return Socket();
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = Errno("bind");
    return Socket();
  }
  if (::listen(sock.fd(), backlog) != 0) {
    if (error != nullptr) *error = Errno("listen");
    return Socket();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      if (error != nullptr) *error = Errno("getsockname");
      return Socket();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  if (!SetNonBlocking(sock.fd(), true)) {
    if (error != nullptr) *error = Errno("fcntl");
    return Socket();
  }
  return sock;
}

Socket ConnectTcp(const std::string& host, std::uint16_t port, int timeout_ms,
                  std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return Socket();
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return Socket();
  }
  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking mode for the client's poll-with-deadline I/O helpers.
  if (!SetNonBlocking(sock.fd(), true)) {
    if (error != nullptr) *error = Errno("fcntl");
    return Socket();
  }
  FaultAction fault_action;
  if (SUBEX_FAULT(FaultPoint::kSocketConnect, &fault_action) &&
      fault_action == FaultAction::kFail) {
    if (error != nullptr) *error = "connect: injected fault";
    return Socket();
  }
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      if (error != nullptr) *error = Errno("connect");
      return Socket();
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int ready;
    do {
      // A signal landing mid-connect must not abort the round trip: retry
      // the poll with whatever deadline budget remains (an injected
      // kEintr at the connect point exercises the same path).
      if (SUBEX_FAULT(FaultPoint::kSocketConnect, &fault_action) &&
          fault_action != FaultAction::kEintr) {
        if (error != nullptr) *error = "connect: injected fault";
        return Socket();
      }
      pollfd pfd{sock.fd(), POLLOUT, 0};
      ready = ::poll(&pfd, 1, RemainingMs(deadline));
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      if (error != nullptr) {
        *error = ready == 0 ? "connect timed out" : Errno("poll");
      }
      return Socket();
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (error != nullptr) {
        *error = std::string("connect: ") + std::strerror(so_error);
      }
      return Socket();
    }
  }
  if (!SetNonBlocking(sock.fd(), false)) {
    if (error != nullptr) *error = Errno("fcntl");
    return Socket();
  }
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

bool MakeWakePipe(Socket* read_end, Socket* write_end, std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    if (error != nullptr) *error = Errno("pipe");
    return false;
  }
  *read_end = Socket(fds[0]);
  *write_end = Socket(fds[1]);
  return SetNonBlocking(fds[0], true) && SetNonBlocking(fds[1], true);
}

bool SendAll(int fd, const std::uint8_t* data, std::size_t size,
             int timeout_ms, std::string* error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < size) {
    std::size_t want = size - sent;
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketWrite, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Partial write — the loop must resume from `sent`.
      } else {
        if (error != nullptr) *error = "send: injected fault";
        return false;
      }
    }
    // Try the send first: a request frame almost always fits the socket
    // buffer, so the poll is only paid when the buffer is full.
    const ssize_t n = ::send(fd, data + sent, want, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      if (error != nullptr) *error = Errno("send");
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      if (error != nullptr) *error = "send timed out";
      return false;
    }
    if (ready < 0 && errno != EINTR) {
      if (error != nullptr) *error = Errno("poll");
      return false;
    }
  }
  return true;
}

bool RecvSome(int fd, std::uint8_t* buffer, std::size_t capacity,
              int timeout_ms, std::size_t* received, std::string* error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      if (error != nullptr) *error = "receive timed out";
      return false;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("poll");
      return false;
    }
    std::size_t want = capacity;
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketRead, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Partial read — the framing layer must reassemble.
      } else {
        if (error != nullptr) *error = "recv: injected fault";
        return false;
      }
    }
    const ssize_t n = ::recv(fd, buffer, want, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (error != nullptr) *error = Errno("recv");
      return false;
    }
    *received = static_cast<std::size_t>(n);
    return true;
  }
}

}  // namespace subex
