#include "obs/metrics_http.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "obs/prometheus.h"
#include "obs/registry.h"

namespace subex {
namespace {

void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

bool MetricsHttpServer::Start(std::uint16_t port, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "already running";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 8) != 0) {
    if (error != nullptr) *error = "bind/listen failed";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The accept loop polls with a timeout, so it notices `running_` soon.
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    char request[1024];
    const ssize_t got = ::recv(client, request, sizeof(request) - 1, 0);
    std::string request_line;
    if (got > 0) {
      request[got] = '\0';
      const char* end = std::strstr(request, "\r\n");
      request_line.assign(request,
                          end != nullptr ? static_cast<std::size_t>(
                                               end - request)
                                         : static_cast<std::size_t>(got));
    }
    std::string status = "404 Not Found";
    std::string content_type = "text/plain; charset=utf-8";
    std::string body = "not found\n";
    if (request_line.rfind("GET /metrics", 0) == 0) {
      status = "200 OK";
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = RenderPrometheusText(MetricsRegistry::Global());
      requests_.fetch_add(1, std::memory_order_relaxed);
    }
    std::string response = "HTTP/1.1 " + status +
                           "\r\nContent-Type: " + content_type +
                           "\r\nContent-Length: " + std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    SendAll(client, response);
    ::close(client);
  }
}

}  // namespace subex
