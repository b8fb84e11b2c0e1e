#ifndef SUBEX_OBS_METRICS_HTTP_H_
#define SUBEX_OBS_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace subex {

/// Minimal standalone `GET /metrics` listener for processes that have no
/// `ExplainServer` to piggyback on (bench binaries, tools): one background
/// thread, one connection at a time, `Connection: close` per scrape —
/// exactly enough for a Prometheus scraper or a curl mid-run. Serves the
/// global `MetricsRegistry` via `RenderPrometheusText`; every other path
/// is 404.
class MetricsHttpServer {
 public:
  MetricsHttpServer() = default;
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks a free port; see `port()`) and spawns
  /// the accept thread. False + `*error` when the bind fails.
  bool Start(std::uint16_t port, std::string* error = nullptr);
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after a successful `Start`).
  std::uint16_t port() const { return port_; }
  /// Scrapes served so far.
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace subex

#endif  // SUBEX_OBS_METRICS_HTTP_H_
