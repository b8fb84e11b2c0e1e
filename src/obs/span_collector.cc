#include "obs/span_collector.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>

#include "common/json.h"

namespace subex {
namespace {

/// splitmix64 finalizer: spreads a counter over the full 64-bit space so
/// successive ids don't share prefixes.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t RandomSeed() {
  std::random_device device;
  return (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

std::uint64_t NextId(std::atomic<std::uint64_t>& counter,
                     std::uint64_t seed) {
  std::uint64_t id;
  do {
    id = Mix(seed ^ counter.fetch_add(1, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// (steady, wall) pair captured together once per process; conversions add
/// the signed steady delta to the wall anchor, so spans recorded before the
/// first conversion still land at the right wall time.
struct ClockAnchor {
  std::uint64_t steady_ns;
  std::uint64_t wall_ns;
};

const ClockAnchor& Anchor() {
  static const ClockAnchor anchor = [] {
    ClockAnchor a;
    a.steady_ns = SteadyNowNs();
    a.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return a;
  }();
  return anchor;
}

/// Cached ring registration for the calling thread; invalidated when the
/// collector's generation moves (re-Enable).
struct ThreadSlot {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* ring = nullptr;
};

thread_local ThreadSlot t_slot;

}  // namespace

std::uint64_t NextTraceId() {
  static std::atomic<std::uint64_t> counter{1};
  static const std::uint64_t seed = RandomSeed();
  return NextId(counter, seed);
}

std::uint64_t NextSpanId() {
  static std::atomic<std::uint64_t> counter{1};
  static const std::uint64_t seed = RandomSeed() ^ 0x5bf0363546290e3bULL;
  return NextId(counter, seed);
}

std::uint64_t SteadyToWallNs(std::uint64_t steady_ns) {
  const ClockAnchor& anchor = Anchor();
  const std::int64_t delta = static_cast<std::int64_t>(steady_ns) -
                             static_cast<std::int64_t>(anchor.steady_ns);
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(anchor.wall_ns) +
                                    delta);
}

SpanCollector& SpanCollector::Global() {
  // Never destructed: spans may be recorded from detached threads at exit.
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

void SpanCollector::Enable(std::size_t ring_capacity_per_thread) {
  // Generations are process-unique (not per-instance): a thread's cached
  // ring slot keys on (collector address, generation), and a later collector
  // allocated at a recycled address must never validate a stale cache entry.
  static std::atomic<std::uint64_t> global_generation{0};
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = ring_capacity_per_thread == 0 ? 1 : ring_capacity_per_thread;
  rings_.clear();
  generation_.store(global_generation.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void SpanCollector::Disable() {
  enabled_.store(false, std::memory_order_release);
}

SpanCollector::ThreadRing* SpanCollector::RingForThisThread() {
  const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (t_slot.owner == this && t_slot.generation == generation) {
    return static_cast<ThreadRing*>(t_slot.ring);
  }
  auto ring = std::make_shared<ThreadRing>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring->capacity = ring_capacity_;
    ring->tid = next_tid_++;
    rings_.push_back(ring);
  }
  // The collector's shared_ptr keeps the ring alive past thread exit; the
  // thread-local cache holds a raw pointer, revalidated by generation.
  t_slot.owner = this;
  t_slot.generation = generation;
  t_slot.ring = ring.get();
  return ring.get();
}

void SpanCollector::Record(SpanRecord record) {
  if (!enabled()) return;
  ThreadRing* ring = RingForThisThread();
  std::lock_guard<std::mutex> lock(ring->mutex);
  record.tid = ring->tid;
  // Slots grow on demand, so a thread that records a handful of spans
  // holds a handful of slots rather than a full ring.
  if (ring->slots.size() < ring->capacity) {
    ring->slots.push_back(std::move(record));
  } else {
    ++ring->dropped;
    ring->slots[ring->next] = std::move(record);
  }
  ring->next = (ring->next + 1) % ring->capacity;
}

std::vector<SpanRecord> SpanCollector::Snapshot() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  std::vector<SpanRecord> spans;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    // Oldest first: the write cursor points at the oldest span once the
    // ring has wrapped, and one past the newest (== size) before that.
    const std::size_t size = ring->slots.size();
    for (std::size_t i = 0; i < size; ++i) {
      spans.push_back(ring->slots[(ring->next + i) % size]);
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return spans;
}

std::uint64_t SpanCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

void SpanCollector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->slots.clear();
    ring->next = 0;
    ring->dropped = 0;
  }
}

std::string SpanCollector::ToChromeTraceJson() const {
  const std::vector<SpanRecord> spans = Snapshot();
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  JsonArray events;
  char hex[32];
  for (const SpanRecord& span : spans) {
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(span.trace_id));
    JsonObject args;
    args.Add("trace_id", hex)
        .Add("span_id", span.span_id)
        .Add("parent_id", span.parent_id);
    JsonObject event;
    event.Add("name", span.name)
        .Add("cat", "subex")
        .Add("ph", "X")
        .Add("ts", static_cast<double>(SteadyToWallNs(span.start_ns)) / 1e3)
        .Add("dur", static_cast<double>(span.duration_ns) / 1e3)
        .Add("pid", pid)
        .Add("tid", static_cast<std::uint64_t>(span.tid))
        .AddRaw("args", args.Build());
    events.AddRaw(event.Build());
  }
  JsonObject document;
  document.Add("displayTimeUnit", "ms").AddRaw("traceEvents", events.Build());
  return document.Build();
}

}  // namespace subex
