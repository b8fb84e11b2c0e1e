#include "net/explain_server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <exception>
#include <utility>
#include <vector>

#include "common/json.h"
#include "fault/fault.h"
#include "mem/eviction_manager.h"
#include "obs/build_info.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/span_collector.h"
#include "obs/trace.h"
#include "prof/perf_counters.h"
#include "prof/sampling_profiler.h"

namespace subex {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t NsOf(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

std::uint64_t NsSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Request headers longer than this are rejected — `GET /metrics` fits in
/// a fraction of it, anything bigger is not our client.
constexpr std::size_t kMaxHttpRequestBytes = 8192;

}  // namespace

const ExplainServer::RequestType ExplainServer::kRequestTypes[] = {
    {MessageType::kScore, "score", &ExplainServer::HandleScore},
    {MessageType::kExplain, "explain", &ExplainServer::HandleExplain},
    {MessageType::kStats, "stats", &ExplainServer::HandleStats},
    {MessageType::kTraceDump, "trace_dump", &ExplainServer::HandleTraceDump},
    {MessageType::kIngest, "ingest", &ExplainServer::HandleIngest},
    {MessageType::kOnlineScore, "online_score",
     &ExplainServer::HandleOnlineScore},
    {MessageType::kOnlineExplain, "online_explain",
     &ExplainServer::HandleOnlineExplain},
    {MessageType::kProfDump, "prof", &ExplainServer::HandleProfDump},
};

const ExplainServer::RequestType* ExplainServer::FindRequestType(
    MessageType type) {
  for (const RequestType& kind : kRequestTypes) {
    if (kind.type == type) return &kind;
  }
  return nullptr;
}

std::string ServerStatsSnapshot::ToJson() const {
  return JsonObject()
      .Add("connections_accepted", connections_accepted)
      .Add("connections_closed", connections_closed)
      .Add("requests_admitted", requests_admitted)
      .Add("responses_sent", responses_sent)
      .Add("busy_rejections", busy_rejections)
      .Add("protocol_errors", protocol_errors)
      .Add("timeouts", timeouts)
      .Add("deadline_expired_queue", deadline_expired_queue)
      .Add("deadline_expired_compute", deadline_expired_compute)
      .Build();
}

/// Per-connection state. The socket and decoder belong to the event-loop
/// thread. The write queue is shared: a handler that finds it empty writes
/// its response straight through, and whatever the socket does not take is
/// left for the loop to flush on POLLOUT. Everything under `mutex` is
/// written by both sides.
struct ExplainServer::Connection {
  Connection(Socket s, std::size_t max_frame_bytes)
      : socket(std::move(s)),
        decoder(max_frame_bytes),
        last_progress_ns(NsOf(Clock::now())) {}

  Socket socket;
  FrameDecoder decoder;
  /// Steady-clock stamp of the last byte read or written. The loop reads
  /// and writes it, and so does a write-through on a pool thread; the
  /// idle timeout reads it without taking `mutex`.
  std::atomic<std::uint64_t> last_progress_ns;
  /// Nanoseconds between the last progress and `now_ns` (0 when a pool
  /// thread stamped progress after `now_ns` was read).
  std::uint64_t IdleNs(std::uint64_t now_ns) const {
    const std::uint64_t last = last_progress_ns.load(std::memory_order_relaxed);
    return now_ns > last ? now_ns - last : 0;
  }
  /// Admitted requests of this connection still computing.
  std::atomic<int> in_flight{0};

  /// One queued response frame plus the labels its `net.write` span (the
  /// enqueue-to-fully-sent interval) carries once flushed.
  struct WriteEntry {
    std::vector<std::uint8_t> frame;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
    std::uint64_t enqueued_ns = 0;
  };

  std::mutex mutex;
  std::deque<WriteEntry> write_queue;
  std::size_t write_offset = 0;  // Sent bytes of the front frame.
  bool close_after_flush = false;
  /// A write-through failed; the loop closes the connection on its next
  /// pass, as it does after a failed `HandleWritable`.
  bool broken = false;
  bool closed = false;
  /// Cleared `Trace` objects reused across this connection's requests —
  /// tracing stays off the allocator hot path. Guarded by `mutex`.
  std::vector<std::unique_ptr<Trace>> trace_pool;
};

/// One `/metrics` exchange. Loop-thread only, no locking.
struct ExplainServer::HttpConnection {
  explicit HttpConnection(Socket s) : socket(std::move(s)) {}

  Socket socket;
  std::string request;
  std::string response;
  std::size_t write_offset = 0;
  bool response_ready = false;
};

ExplainServer::ExplainServer(const ExplainServerOptions& options,
                             ThreadPool* pool)
    : options_(options),
      pool_(pool),
      request_histogram_(
          &MetricsRegistry::Global().GetHistogram("serve.request")),
      queue_wait_histogram_(
          &MetricsRegistry::Global().GetHistogram("serve.queue_wait")),
      write_histogram_(&MetricsRegistry::Global().GetHistogram("net.write")),
      explain_search_histogram_(
          &MetricsRegistry::Global().GetHistogram("explain.search")),
      bytes_received_(
          &MetricsRegistry::Global().GetCounter("net.bytes_received")),
      bytes_sent_(&MetricsRegistry::Global().GetCounter("net.bytes_sent")),
      deadline_queue_counter_(&MetricsRegistry::Global().GetCounter(
          "serve.deadline_expired_queue")),
      deadline_compute_counter_(&MetricsRegistry::Global().GetCounter(
          "serve.deadline_expired_compute")),
      connections_gauge_(
          &MetricsRegistry::Global().GetGauge("serve.connections")),
      uptime_gauge_(
          &MetricsRegistry::Global().GetGauge("server.uptime_seconds")) {
  for (const RequestType& kind : kRequestTypes) {
    request_type_histograms_.push_back(&MetricsRegistry::Global().GetHistogram(
        std::string("serve.request.") + kind.name));
  }
}

ExplainServer::~ExplainServer() { Stop(); }

void ExplainServer::RegisterService(ScoringService& service) {
  services_[service.detector_name()] = &service;
}

void ExplainServer::RegisterExplainer(const std::string& name,
                                      const PointExplainer& explainer) {
  explainers_[name] = &explainer;
}

void ExplainServer::RegisterOnlineDataset(OnlineDataset& dataset) {
  online_[dataset.name()] = &dataset;
}

bool ExplainServer::Start(std::string* error) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (loop_thread_.joinable()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  if (options_.queue_capacity == 0) {
    if (error != nullptr) *error = "queue_capacity must be >= 1";
    return false;
  }
  listener_ = ListenTcp(options_.host, options_.port, options_.listen_backlog,
                        &port_, error);
  if (!listener_.valid()) return false;
  // Make the prof availability gauges scrapeable from the first request —
  // they exist (as zeros) even where perf_event_open is denied.
  RegisterProfProcessMetrics();
  if (options_.metrics_port >= 0) {
    metrics_listener_ =
        ListenTcp(options_.host, static_cast<std::uint16_t>(options_.metrics_port),
                  options_.listen_backlog, &metrics_port_, error);
    if (!metrics_listener_.valid()) {
      listener_.Close();
      return false;
    }
  }
  if (!MakeWakePipe(&wake_read_, &wake_write_, error)) return false;
  started_at_ = Clock::now();
  if (options_.trace_ring_capacity > 0 && !SpanCollector::Global().enabled()) {
    SpanCollector::Global().Enable(options_.trace_ring_capacity);
  }
  if (options_.slow_request_threshold_ms > 0) {
    slow_capture_ = std::make_unique<SlowRequestCapture>(
        static_cast<std::uint64_t>(options_.slow_request_threshold_ms * 1e6),
        options_.slow_request_capacity);
  }
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&ExplainServer::Loop, this);
  return true;
}

void ExplainServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!loop_thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  Wake();
  loop_thread_.join();
  running_.store(false, std::memory_order_release);
  // The drain deadline bounds how long the loop waits for handlers, not
  // handler lifetime: wait out any stragglers before closing the wake pipe
  // they may still write to.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  wake_read_.Close();
  wake_write_.Close();
}

ServerStatsSnapshot ExplainServer::stats() const {
  ServerStatsSnapshot snap;
  snap.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  snap.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  snap.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  snap.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  snap.busy_rejections = busy_rejections_.load(std::memory_order_relaxed);
  snap.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  snap.timeouts = timeouts_.load(std::memory_order_relaxed);
  snap.deadline_expired_queue =
      deadline_expired_queue_.load(std::memory_order_relaxed);
  snap.deadline_expired_compute =
      deadline_expired_compute_.load(std::memory_order_relaxed);
  return snap;
}

void ExplainServer::Wake() {
  const std::uint8_t byte = 1;
  // EAGAIN means the pipe already holds unread wake bytes — good enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.fd(), &byte, 1);
}

void ExplainServer::Loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  std::vector<HttpConnection*> polled_http;
  bool draining = false;
  Clock::time_point drain_deadline{};

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
      listener_.Close();  // No new connections; stop reading below.
      metrics_listener_.Close();
      // Metrics scrapes are cheap and stateless — no drain, just drop them.
      http_connections_.clear();
    }

    pfds.clear();
    polled.clear();
    polled_http.clear();
    pfds.push_back(pollfd{wake_read_.fd(), POLLIN, 0});
    if (listener_.valid()) {
      pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    }
    if (metrics_listener_.valid()) {
      pfds.push_back(pollfd{metrics_listener_.fd(), POLLIN, 0});
    }
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      if (!draining) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->write_queue.empty()) events |= POLLOUT;
      }
      pfds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }
    for (auto& [fd, http] : http_connections_) {
      pfds.push_back(pollfd{
          fd, static_cast<short>(http->response_ready ? POLLOUT : POLLIN), 0});
      polled_http.push_back(http.get());
    }

    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 10;
    } else if (!connections_.empty() && options_.idle_timeout_ms > 0) {
      timeout_ms = std::min(options_.idle_timeout_ms, 250);
    }
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                             timeout_ms);
    if (ready < 0 && errno != EINTR && errno != EAGAIN) break;

    if (pfds[0].revents & POLLIN) {
      std::uint8_t buf[256];
      while (::read(wake_read_.fd(), buf, sizeof(buf)) > 0) {
      }
    }
    std::size_t index = 1;
    if (listener_.valid()) {
      if (pfds[index].revents & POLLIN) AcceptNewConnections();
      ++index;
    }
    if (metrics_listener_.valid()) {
      if (pfds[index].revents & POLLIN) AcceptMetricsConnections();
      ++index;
    }

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const std::shared_ptr<Connection>& conn = polled[i];
      const short revents = pfds[index + i].revents;
      bool alive = true;
      if (revents & POLLOUT) alive = HandleWritable(conn);
      if (alive && (revents & POLLIN)) alive = HandleReadable(conn);
      if (alive && (revents & (POLLERR | POLLNVAL))) alive = false;
      if (alive && (revents & POLLHUP) && !(revents & POLLIN)) alive = false;
      if (alive) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->broken ||
            (conn->close_after_flush && conn->write_queue.empty() &&
             conn->in_flight.load(std::memory_order_acquire) == 0)) {
          alive = false;
        }
      }
      if (!alive) CloseConnection(conn);
    }
    index += polled.size();

    for (std::size_t i = 0; i < polled_http.size(); ++i) {
      HttpConnection& http = *polled_http[i];
      const short revents = pfds[index + i].revents;
      bool alive = true;
      if (revents & POLLIN) alive = HandleHttpReadable(http);
      if (alive && (revents & POLLOUT)) alive = HandleHttpWritable(http);
      if (alive && (revents & (POLLERR | POLLNVAL | POLLHUP)) &&
          !(revents & POLLIN)) {
        alive = false;
      }
      if (!alive) {
        const int fd = http.socket.fd();
        http.socket.Close();
        http_connections_.erase(fd);
      }
    }

    if (!draining && options_.idle_timeout_ms > 0) {
      const std::uint64_t now_ns = NsOf(Clock::now());
      const std::uint64_t limit_ns =
          static_cast<std::uint64_t>(options_.idle_timeout_ms) * 1000000u;
      // Snapshot first: CloseConnection mutates the map.
      std::vector<std::shared_ptr<Connection>> idle;
      for (auto& [fd, conn] : connections_) {
        if (conn->in_flight.load(std::memory_order_acquire) == 0 &&
            conn->IdleNs(now_ns) > limit_ns) {
          idle.push_back(conn);
        }
      }
      for (const std::shared_ptr<Connection>& conn : idle) {
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        SUBEX_EVENT(EventSeverity::kInfo, "serve.idle_timeout",
                    JsonObject()
                        .Add("fd", conn->socket.fd())
                        .Add("idle_ms",
                             static_cast<double>(conn->IdleNs(now_ns)) / 1e6)
                        .Build());
        CloseConnection(conn);
      }
    }

    if (draining) {
      bool flushed = in_flight_.load(std::memory_order_acquire) == 0;
      if (flushed) {
        for (auto& [fd, conn] : connections_) {
          std::lock_guard<std::mutex> lock(conn->mutex);
          if (!conn->write_queue.empty()) {
            flushed = false;
            break;
          }
        }
      }
      if (flushed || Clock::now() > drain_deadline) break;
    }
  }

  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) remaining.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : remaining) {
    CloseConnection(conn);
  }
  http_connections_.clear();
}

void ExplainServer::AcceptMetricsConnections() {
  while (true) {
    const int fd = ::accept(metrics_listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    Socket socket(fd);
    if (!SetNonBlocking(fd, true)) continue;
    http_connections_.emplace(fd,
                              std::make_unique<HttpConnection>(std::move(socket)));
  }
}

bool ExplainServer::HandleHttpReadable(HttpConnection& conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn.socket.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.request.append(buf, static_cast<std::size_t>(n));
      if (conn.request.size() > kMaxHttpRequestBytes) return false;
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      return false;  // EOF before a complete request.
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
  }
  if (!conn.response_ready &&
      conn.request.find("\r\n\r\n") != std::string::npos) {
    conn.response = BuildMetricsHttpResponse(conn.request);
    conn.response_ready = true;
    // Try to flush immediately — most scrapes fit one send.
    return HandleHttpWritable(conn);
  }
  return true;
}

bool ExplainServer::HandleHttpWritable(HttpConnection& conn) {
  if (!conn.response_ready) return true;
  while (conn.write_offset < conn.response.size()) {
    const ssize_t n = ::send(conn.socket.fd(),
                             conn.response.data() + conn.write_offset,
                             conn.response.size() - conn.write_offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.write_offset += static_cast<std::size_t>(n);
  }
  return false;  // Fully sent; Connection: close semantics.
}

std::string ExplainServer::BuildMetricsHttpResponse(
    const std::string& request_text) {
  const std::size_t line_end = request_text.find("\r\n");
  const std::string request_line = request_text.substr(
      0, line_end == std::string::npos ? request_text.size() : line_end);
  std::string status = "404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "not found\n";
  if (request_line.rfind("GET /metrics", 0) == 0) {
    uptime_gauge_->Set(static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                         started_at_)
            .count()));
    status = "200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = RenderPrometheusText(MetricsRegistry::Global());
  } else if (!request_line.empty() && request_line.rfind("GET ", 0) != 0) {
    status = "405 Method Not Allowed";
    body = "only GET is supported\n";
  }
  std::string response = "HTTP/1.1 " + status + "\r\n";
  response += "Content-Type: " + content_type + "\r\n";
  response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += body;
  return response;
}

void ExplainServer::AcceptNewConnections() {
  while (true) {
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketAccept, &fault_action)) {
      // Behave like a transient accept failure: stop this pass. The
      // listener is level-triggered, so pending connections re-signal on
      // the next poll and the loop recovers once the fault clears.
      break;
    }
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN/EWOULDBLOCK: accepted everything pending.
    }
    Socket socket(fd);
    if (!SetNonBlocking(fd, true)) continue;  // Drops the connection.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_gauge_->Add(1);
    connections_.emplace(fd, std::make_shared<Connection>(
                                 std::move(socket), options_.max_frame_bytes));
  }
}

bool ExplainServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[16384];
  while (true) {
    std::size_t want = sizeof(buf);
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketRead, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Torn read — the frame decoder must reassemble.
      } else {
        return false;  // Connection torn down like a real recv failure.
      }
    }
    const ssize_t n = ::recv(conn->socket.fd(), buf, want, 0);
    if (n > 0) {
      conn->last_progress_ns.store(NsOf(Clock::now()),
                                   std::memory_order_relaxed);
      bytes_received_->Increment(static_cast<std::uint64_t>(n));
      conn->decoder.Feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n == 0) {
      return false;  // Orderly EOF from the peer.
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
  }
  std::vector<std::uint8_t> payload;
  while (conn->decoder.Next(&payload)) {
    DispatchFrame(conn, std::move(payload));
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->close_after_flush) return true;  // Stop parsing a bad stream.
  }
  if (conn->decoder.error()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SUBEX_EVENT(EventSeverity::kWarn, "net.max_frame",
                JsonObject()
                    .Add("max_frame_bytes",
                         static_cast<std::uint64_t>(options_.max_frame_bytes))
                    .Build());
    EnqueueResponse(conn, EncodeError(0, "frame exceeds maximum size"));
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->close_after_flush = true;
  }
  return true;
}

bool ExplainServer::HandleWritable(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  return !conn->broken && FlushLocked(*conn);
}

bool ExplainServer::FlushLocked(Connection& conn) {
  while (!conn.write_queue.empty()) {
    const Connection::WriteEntry& entry = conn.write_queue.front();
    const std::vector<std::uint8_t>& front = entry.frame;
    std::size_t want = front.size() - conn.write_offset;
    FaultAction fault_action;
    if (SUBEX_FAULT(FaultPoint::kSocketWrite, &fault_action)) {
      if (fault_action == FaultAction::kEintr) continue;
      if (fault_action == FaultAction::kShort) {
        want = 1;  // Partial write — resumption via write_offset.
      } else {
        return false;  // Connection torn down like a real send failure.
      }
    }
    const ssize_t n = ::send(conn.socket.fd(), front.data() + conn.write_offset,
                             want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    const std::uint64_t now_ns = NsOf(Clock::now());
    conn.last_progress_ns.store(now_ns, std::memory_order_relaxed);
    bytes_sent_->Increment(static_cast<std::uint64_t>(n));
    conn.write_offset += static_cast<std::size_t>(n);
    if (conn.write_offset == front.size()) {
      // The response's "net.write" interval: enqueued by the handler to
      // fully handed to the kernel here. The histogram takes one sample per
      // response; the span carries the same interval, tagged with the
      // request's trace.
      write_histogram_->Record(now_ns - entry.enqueued_ns);
      SpanCollector& collector = SpanCollector::Global();
      if (collector.enabled() && entry.enqueued_ns != 0) {
        SpanRecord record;
        record.name = "net.write";
        record.trace_id = entry.trace_id;
        record.span_id = NextSpanId();
        record.parent_id = entry.parent_span_id;
        record.start_ns = entry.enqueued_ns;
        record.duration_ns = now_ns - entry.enqueued_ns;
        collector.Record(std::move(record));
      }
      conn.write_queue.pop_front();
      conn.write_offset = 0;
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void ExplainServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                  std::vector<std::uint8_t> payload) {
  WireReader reader(payload);
  MessageHeader header;
  const bool header_ok =
      DecodeHeader(reader, &header) && header.version == kProtocolVersion;
  const RequestType* kind = header_ok ? FindRequestType(header.type) : nullptr;
  if (kind == nullptr) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SUBEX_EVENT(EventSeverity::kWarn, "net.protocol_error",
                JsonObject()
                    .Add("request_id", header.request_id)
                    .Add("bytes", static_cast<std::uint64_t>(payload.size()))
                    .Build());
    EnqueueResponse(conn,
                    EncodeError(header.request_id, "malformed request header"));
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->close_after_flush = true;
    return;
  }

  // Admission control: the bounded queue is a counter, not a buffer — at
  // capacity the reply is an immediate kBusy and nothing is retained.
  std::size_t current = in_flight_.load(std::memory_order_relaxed);
  do {
    if (current >= options_.queue_capacity) {
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      SUBEX_EVENT(
          EventSeverity::kWarn, "serve.busy",
          JsonObject()
              .Add("request_id", header.request_id)
              .Add("queue_capacity",
                   static_cast<std::uint64_t>(options_.queue_capacity))
              .Build());
      EnqueueResponse(conn, EncodeBusy(header.request_id));
      return;
    }
  } while (!in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed));
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  const bool conn_idle =
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel) == 0;
  const Clock::time_point admitted = Clock::now();

  // A kScore whose vector is cached is answered here, on the loop thread,
  // when nothing else of its connection is in flight: the hop to the pool
  // and back would cost more than the answer. With an earlier request still
  // computing, the reply could overtake that request's, so it queues.
  ScoreVectorPtr hit;
  if (pool_ != nullptr && conn_idle && kind->type == MessageType::kScore) {
    WireReader body(payload.data() + EncodedHeaderBytes(header),
                    payload.size() - EncodedHeaderBytes(header));
    ScoreRequest request;
    std::string error;
    if (ScoringService* service = FindScoreService(body, &request, &error)) {
      hit = service->Cached(request.subspace);
    }
  }
  if (pool_ != nullptr && hit == nullptr) {
    pool_->Submit([this, conn, header, kind, admitted,
                   body = std::move(payload)]() mutable {
      HandleRequest(conn, header, *kind, std::move(body), admitted);
    });
  } else {
    HandleRequest(conn, header, *kind, std::move(payload), admitted,
                  std::move(hit));
  }
}

void ExplainServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                  MessageHeader header, const RequestType& kind,
                                  std::vector<std::uint8_t> payload,
                                  Clock::time_point admitted,
                                  ScoreVectorPtr hit) {
  const std::uint64_t queue_wait_ns = NsSince(admitted);
  queue_wait_histogram_->Record(queue_wait_ns);

  // The client's deadline is a relative budget stamped at admission.
  // Expired work is dropped here, at queue-dequeue, before any compute —
  // the client has already given up, so the cheapest honest answer is an
  // immediate kDeadlineExceeded.
  const bool has_deadline = header.has_deadline && header.deadline_ms > 0;
  const Clock::time_point deadline =
      admitted + std::chrono::milliseconds(header.deadline_ms);
  if (has_deadline && Clock::now() >= deadline) {
    deadline_expired_queue_.fetch_add(1, std::memory_order_relaxed);
    deadline_queue_counter_->Increment();
    SUBEX_EVENT(EventSeverity::kWarn, "serve.deadline",
                JsonObject()
                    .Add("request_id", header.request_id)
                    .Add("stage", "queue")
                    .Add("deadline_ms",
                         static_cast<std::uint64_t>(header.deadline_ms))
                    .Build());
    EnqueueResponse(conn, EncodeDeadlineExceeded(header.request_id));
    FinishRequest(*conn);
    return;
  }

  // Continue the client's distributed trace (or root a fresh one): the
  // request's spans nest under one root that starts at admission. Traces
  // are pooled per connection — Clear + reuse, no per-request allocation
  // once a connection is warm.
  Trace* trace;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->trace_pool.empty()) {
      trace = new Trace();
    } else {
      trace = conn->trace_pool.back().release();
      conn->trace_pool.pop_back();
    }
  }
  trace->set_trace_id(header.has_trace_id && header.trace_id != 0
                          ? header.trace_id
                          : NextTraceId());
  const std::uint64_t admitted_ns = NsOf(admitted);
  const std::size_t root = trace->OpenSpan("serve.request", admitted_ns);
  const std::uint64_t root_span_id = trace->spans()[root].span_id;
  trace->Record("serve.queue_wait", admitted_ns, queue_wait_ns);

  WireReader reader(payload.data() + EncodedHeaderBytes(header),
                    payload.size() - EncodedHeaderBytes(header));
  std::vector<std::uint8_t> response;
  try {
    // Handlers and everything they call (scoring service, chunk loads,
    // explainer pipelines) see this trace via CurrentTrace().
    TraceContext context(trace);
    response = hit != nullptr
                   ? EncodeScoreResult(header.request_id, *hit)
                   : (this->*kind.handler)(header.request_id, reader);
  } catch (const std::exception& e) {
    response = EncodeError(header.request_id,
                           std::string("handler exception: ") + e.what());
  }
  // Second deadline gate, between the compute and write-back stages: a
  // result the client has stopped waiting for is discarded rather than
  // flushed down the pipe.
  if (has_deadline && Clock::now() >= deadline) {
    deadline_expired_compute_.fetch_add(1, std::memory_order_relaxed);
    deadline_compute_counter_->Increment();
    response = EncodeDeadlineExceeded(header.request_id);
  }
  const std::uint64_t end_to_end_ns = NsSince(admitted);
  request_histogram_->Record(end_to_end_ns);
  request_type_histograms_[&kind - kRequestTypes]->Record(end_to_end_ns);

  // Finish the trace BEFORE the response is enqueued: once the client can
  // see the reply it may immediately ask for a kTraceDump, and every span
  // of this request must already be in the collector. net.write is
  // recorded by whichever thread sends the last byte, under `conn->mutex`,
  // which a dump request on the same connection takes before it runs.
  const std::uint64_t trace_id = trace->trace_id();
  trace->CloseSpan(root, end_to_end_ns);
  if (slow_capture_ != nullptr && slow_capture_->WouldCapture(end_to_end_ns)) {
    slow_capture_->Capture(kind.name, header.request_id, trace_id,
                           end_to_end_ns, trace->ToJson());
  }
  trace->Clear();
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->trace_pool.emplace_back(trace);
  }
  EnqueueResponse(conn, std::move(response), trace_id, root_span_id);
  FinishRequest(*conn);
}

namespace {

/// Features must address columns of the service's dataset; an out-of-range
/// id would be undefined behavior deep inside a detector.
bool SubspaceInRange(const Subspace& subspace, std::size_t num_features) {
  for (const FeatureId f : subspace.features()) {
    if (f < 0 || static_cast<std::size_t>(f) >= num_features) return false;
  }
  return true;
}

}  // namespace

ScoringService* ExplainServer::FindScoreService(WireReader& reader,
                                                ScoreRequest* request,
                                                std::string* error) {
  if (!DecodeScoreRequest(reader, request)) {
    *error = "malformed kScore body";
    return nullptr;
  }
  const auto it = services_.find(request->detector);
  if (it == services_.end()) {
    *error = "unknown detector: " + request->detector;
    return nullptr;
  }
  if (!SubspaceInRange(request->subspace,
                       it->second->data().num_features())) {
    *error = "subspace feature out of range";
    return nullptr;
  }
  return it->second;
}

std::vector<std::uint8_t> ExplainServer::HandleScore(std::uint64_t request_id,
                                                     WireReader& reader) {
  ScoreRequest request;
  std::string error;
  ScoringService* service = FindScoreService(reader, &request, &error);
  if (service == nullptr) return EncodeError(request_id, error);
  return EncodeScoreResult(request_id, *service->Score(request.subspace));
}

std::vector<std::uint8_t> ExplainServer::HandleExplain(std::uint64_t request_id,
                                                       WireReader& reader) {
  ExplainRequest request;
  if (!DecodeExplainRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kExplain body");
  }
  const auto service_it = services_.find(request.detector);
  if (service_it == services_.end()) {
    return EncodeError(request_id, "unknown detector: " + request.detector);
  }
  const auto explainer_it = explainers_.find(request.explainer);
  if (explainer_it == explainers_.end()) {
    return EncodeError(request_id, "unknown explainer: " + request.explainer);
  }
  ScoringService& service = *service_it->second;
  const Dataset& data = service.data();
  if (request.point < 0 ||
      static_cast<std::size_t>(request.point) >= data.num_points()) {
    return EncodeError(request_id, "point index out of range");
  }
  if (request.target_dim < 2 ||
      static_cast<std::size_t>(request.target_dim) > data.num_features()) {
    return EncodeError(request_id, "target_dim out of range");
  }
  // Scoring routes through the service, so concurrent explanations share
  // the cache and single-flight deduplication.
  CachingDetector cached(service);
  ExplainResult result;
  {
    // Attaches to the request's trace via CurrentTrace(); detect.score
    // spans from the service nest underneath.
    TraceSpan search(explain_search_histogram_, nullptr, "explain.search");
    result.ranking = explainer_it->second->Explain(data, cached, request.point,
                                                   request.target_dim);
  }
  if (request.max_results > 0 && result.ranking.size() > request.max_results) {
    result.ranking.subspaces.resize(request.max_results);
    result.ranking.scores.resize(request.max_results);
  }
  return EncodeExplainResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleStats(std::uint64_t request_id,
                                                     WireReader& /*reader*/) {
  JsonObject services;
  for (const auto& [name, service] : services_) {
    services.AddRaw(name, service->stats().ToJson());
  }
  const std::uint64_t uptime_seconds = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                       started_at_)
          .count());
  uptime_gauge_->Set(static_cast<std::int64_t>(uptime_seconds));
  const std::string events_json = EventLog::Global().ToJson();
  const std::string slow_json =
      slow_capture_ != nullptr
          ? slow_capture_->ToJson()
          : "{\"threshold_ms\":0,\"captured\":0,\"recent\":[]}";
  JsonObject online;
  for (const auto& [name, dataset] : online_) {
    online.AddRaw(name, dataset->stats().ToJson());
  }
  TextResult result;
  result.text = JsonObject()
                    .Add("uptime_seconds", uptime_seconds)
                    .AddRaw("build_info", BuildInfoJson())
                    .AddRaw("server", stats().ToJson())
                    .AddRaw("services", services.Build())
                    .AddRaw("online", online.Build())
                    .AddRaw("metrics", MetricsRegistry::Global().ToJson())
                    .AddRaw("mem", EvictionManager::Global().snapshot().ToJson())
                    .AddRaw("events", events_json)
                    .AddRaw("slow_requests", slow_json)
                    .AddRaw("fault", FaultRegistry::Global().stats().ToJson())
                    .Build();
  return EncodeStatsResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleTraceDump(
    std::uint64_t request_id, WireReader& reader) {
  TraceDumpRequest request;
  if (!DecodeTraceDumpRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kTraceDump body");
  }
  TextResult result;
  SpanCollector& collector = SpanCollector::Global();
  result.text = collector.ToChromeTraceJson();
  if (request.clear) collector.Clear();
  return EncodeTraceDumpResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleProfDump(
    std::uint64_t request_id, WireReader& reader) {
  ProfDumpRequest request;
  if (!DecodeProfDumpRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kProfDump body");
  }
  SamplingProfiler& profiler = SamplingProfiler::Global();
  ProfDumpResult result;
  switch (request.action) {
    case ProfAction::kStart: {
      SamplingProfilerOptions options;
      if (request.sample_hz != 0) {
        options.sample_hz = static_cast<int>(request.sample_hz);
      }
      std::string error;
      const bool started = profiler.Start(options, &error);
      JsonObject status;
      status.Add("running", profiler.running());
      status.Add("sample_hz", profiler.sample_hz());
      status.Add("supported", SamplingProfiler::SupportedOnThisSystem());
      if (!started) status.Add("error", error);
      result.text = status.Build();
      break;
    }
    case ProfAction::kStop: {
      profiler.Stop();
      result.text = JsonObject()
                        .Add("running", false)
                        .Add("samples", profiler.samples())
                        .Add("dropped", profiler.dropped())
                        .Build();
      break;
    }
    case ProfAction::kDump: {
      result.text = profiler.ToCollapsedText();
      if (request.clear) profiler.Clear();
      break;
    }
  }
  return EncodeProfDumpResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleIngest(std::uint64_t request_id,
                                                      WireReader& reader) {
  IngestRequest request;
  if (!DecodeIngestRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kIngest body");
  }
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) {
    return EncodeError(request_id,
                       "unknown online dataset: " + request.dataset);
  }
  OnlineDataset& dataset = *it->second;
  if (request.num_rows == 0) {
    return EncodeError(request_id, "empty ingest");
  }
  const std::size_t width = request.values.size() / request.num_rows;
  if (width != dataset.num_features()) {
    return EncodeError(request_id, "ingest width mismatch");
  }
  Matrix rows(request.num_rows, width);
  for (std::uint32_t r = 0; r < request.num_rows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      rows(r, c) = request.values[static_cast<std::size_t>(r) * width + c];
    }
  }
  const OnlineDataset::IngestResult ingested = dataset.Append(rows);
  IngestResult result;
  result.accepted = static_cast<std::uint32_t>(ingested.accepted);
  result.window_epoch = ingested.epoch;
  result.window_size = ingested.window_size;
  result.total_ingested = ingested.total_ingested;
  result.advances = ingested.advances;
  return EncodeIngestResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleOnlineScore(
    std::uint64_t request_id, WireReader& reader) {
  OnlineScoreRequest request;
  if (!DecodeOnlineScoreRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kOnlineScore body");
  }
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) {
    return EncodeError(request_id,
                       "unknown online dataset: " + request.dataset);
  }
  OnlineDataset& dataset = *it->second;
  if (!SubspaceInRange(request.subspace, dataset.num_features())) {
    return EncodeError(request_id, "subspace feature out of range");
  }
  OnlineDataset::ScoredEpoch scored;
  const OnlineDataset::Status status =
      dataset.Score(request.detector, request.subspace, &scored);
  if (status != OnlineDataset::Status::kOk) {
    return EncodeError(request_id, OnlineDataset::StatusMessage(status));
  }
  OnlineScoreResult result;
  result.epoch = scored.epoch;
  result.scores = *scored.scores;
  return EncodeOnlineScoreResult(request_id, result);
}

std::vector<std::uint8_t> ExplainServer::HandleOnlineExplain(
    std::uint64_t request_id, WireReader& reader) {
  OnlineExplainRequest request;
  if (!DecodeOnlineExplainRequest(reader, &request)) {
    return EncodeError(request_id, "malformed kOnlineExplain body");
  }
  const auto it = online_.find(request.dataset);
  if (it == online_.end()) {
    return EncodeError(request_id,
                       "unknown online dataset: " + request.dataset);
  }
  OnlineDataset& dataset = *it->second;
  if (!dataset.HasDetector(request.detector)) {
    return EncodeError(request_id, "unknown detector: " + request.detector);
  }
  const auto explainer_it = explainers_.find(request.explainer);
  if (explainer_it == explainers_.end()) {
    return EncodeError(request_id, "unknown explainer: " + request.explainer);
  }
  // Everything below works on this pinned epoch; even if ingest keeps the
  // window moving, the explanation is internally consistent for it.
  const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
  if (snapshot.data == nullptr ||
      snapshot.data->num_points() < dataset.options().min_score_window) {
    return EncodeError(
        request_id,
        OnlineDataset::StatusMessage(OnlineDataset::Status::kWindowTooSmall));
  }
  const Dataset& data = *snapshot.data;
  if (request.point < 0 ||
      static_cast<std::size_t>(request.point) >= data.num_points()) {
    return EncodeError(request_id, "point index out of range");
  }
  if (request.target_dim < 2 ||
      static_cast<std::size_t>(request.target_dim) > data.num_features()) {
    return EncodeError(request_id, "target_dim out of range");
  }
  const PinnedEpochDetector pinned(dataset, snapshot, request.detector);
  OnlineExplainResult result;
  {
    TraceSpan search(explain_search_histogram_, nullptr, "explain.search");
    result.ranking = explainer_it->second->Explain(data, pinned, request.point,
                                                   request.target_dim);
  }
  if (request.max_results > 0 && result.ranking.size() > request.max_results) {
    result.ranking.subspaces.resize(request.max_results);
    result.ranking.scores.resize(request.max_results);
  }
  result.computed_epoch = snapshot.epoch;
  result.current_epoch = dataset.epoch();
  if (result.computed_epoch < result.current_epoch) {
    dataset.NoteStaleServe(result.computed_epoch, result.current_epoch);
  }
  return EncodeOnlineExplainResult(request_id, result);
}

void ExplainServer::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                    std::vector<std::uint8_t> payload,
                                    std::uint64_t trace_id,
                                    std::uint64_t parent_span_id) {
  Connection::WriteEntry entry;
  entry.frame = EncodeFrame(payload);
  entry.trace_id = trace_id;
  entry.parent_span_id = parent_span_id;
  entry.enqueued_ns = NsOf(Clock::now());
  std::lock_guard<std::mutex> lock(conn->mutex);
  // A gone peer, or one a failed write already condemned, gets nothing.
  if (conn->closed || conn->broken) return;
  const bool idle = conn->write_queue.empty();
  conn->write_queue.push_back(std::move(entry));
  // Write-through: with nothing queued ahead, this frame may go out now
  // instead of after a wake-up and a poll on the loop thread. A queue that
  // is not empty is the loop's (or an earlier write-through's leftover),
  // and the frame waits its turn so responses keep their order.
  if (idle && !FlushLocked(*conn)) conn->broken = true;
}

void ExplainServer::FinishRequest(Connection& conn) {
  conn.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  bool has_work;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    has_work = conn.broken || conn.close_after_flush ||
               !conn.write_queue.empty();
  }
  if (has_work || stop_requested_.load(std::memory_order_acquire)) Wake();
  // Last: once the count reaches zero, Stop may close the wake pipe and
  // the server may be destroyed, so nothing of `this` is touched after.
  in_flight_.fetch_sub(1, std::memory_order_release);
}

void ExplainServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    conn->write_queue.clear();
  }
  const int fd = conn->socket.fd();
  conn->socket.Close();
  connections_.erase(fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  connections_gauge_->Add(-1);
}

}  // namespace subex
