#ifndef SUBEX_NET_SOCKET_H_
#define SUBEX_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace subex {

/// RAII owner of a POSIX socket (or pipe) file descriptor. Move-only;
/// closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Creates a non-blocking listening TCP socket bound to `host:port`
/// (port 0 = kernel-chosen; the bound port is written to `*bound_port`).
/// Returns an invalid socket and fills `*error` on failure.
Socket ListenTcp(const std::string& host, std::uint16_t port, int backlog,
                 std::uint16_t* bound_port, std::string* error);

/// Blocking TCP connect with a deadline; the returned socket is in
/// blocking mode. Returns an invalid socket and fills `*error` on failure
/// or timeout.
Socket ConnectTcp(const std::string& host, std::uint16_t port, int timeout_ms,
                  std::string* error);

/// Switches a descriptor between blocking and non-blocking mode.
bool SetNonBlocking(int fd, bool non_blocking);

/// Creates a non-blocking pipe (used as the event loop's wakeup channel).
bool MakeWakePipe(Socket* read_end, Socket* write_end, std::string* error);

/// Sends all `size` bytes within `timeout_ms`: each attempt is a
/// non-blocking send, and only a full socket buffer waits in poll (SIGPIPE
/// suppressed). Returns false on error or timeout.
bool SendAll(int fd, const std::uint8_t* data, std::size_t size,
             int timeout_ms, std::string* error);

/// Receives up to `capacity` bytes within `timeout_ms`. On success returns
/// true with `*received` set — 0 meaning orderly EOF. Returns false on
/// error or timeout.
bool RecvSome(int fd, std::uint8_t* buffer, std::size_t capacity,
              int timeout_ms, std::size_t* received, std::string* error);

}  // namespace subex

#endif  // SUBEX_NET_SOCKET_H_
