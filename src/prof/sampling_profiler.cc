#include "prof/sampling_profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#if defined(__linux__)
#include <cxxabi.h>
#include <dirent.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // __linux__

#include "common/thread_hooks.h"
#include "obs/registry.h"
#include "prof/perf_counters.h"

namespace subex {

#if defined(__linux__)

namespace {

constexpr std::size_t kMaxThreads = 256;

/// Fill-once sample buffer owned by exactly one thread's signal handler.
/// The handler is the only writer; exporters read `count` with acquire and
/// only touch fully published slots, so no slot is ever read while being
/// written.
struct SampleRing {
  std::size_t capacity = 0;        // Slots.
  std::size_t max_depth = 0;       // PCs per slot.
  std::vector<std::uint16_t> depths;
  std::vector<void*> pcs;          // capacity × max_depth, slot-contiguous.
  std::atomic<std::size_t> count{0};

  void Allocate(std::size_t cap, std::size_t depth) {
    capacity = cap;
    max_depth = depth;
    depths.assign(cap, 0);
    pcs.assign(cap * depth, nullptr);
    count.store(0, std::memory_order_relaxed);
  }
};

/// One registered thread. `tid` is written under the profiler mutex and
/// read by the signal handler (which runs on some registered thread and
/// scans for its own tid), hence atomic.
struct ThreadSlot {
  std::atomic<int> tid{0};
  SampleRing* ring = nullptr;   // Allocated once, reused across tids.
  timer_t timer{};
  bool timer_armed = false;
};

struct ProfilerState {
  std::mutex mutex;                 // Guards slots/timers/options mutation.
  ThreadSlot slots[kMaxThreads];
  std::atomic<std::size_t> slot_count{0};
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> dropped{0};
  SamplingProfilerOptions options;
  bool handler_installed = false;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();  // Never destructed:
  return *state;  // the handler may outlive static destruction order.
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

/// Async-signal-safe: atomics, gettid, backtrace (warmed up at Start so
/// glibc's lazy libgcc load already happened and no malloc occurs here).
void ProfSignalHandler(int, siginfo_t*, void*) {
  ProfilerState& state = State();
  if (!state.running.load(std::memory_order_acquire)) return;
  const int tid = CurrentTid();
  const std::size_t n = state.slot_count.load(std::memory_order_acquire);
  SampleRing* ring = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (state.slots[i].tid.load(std::memory_order_acquire) == tid) {
      ring = state.slots[i].ring;
      break;
    }
  }
  if (ring == nullptr) return;
  const std::size_t idx = ring->count.load(std::memory_order_relaxed);
  if (idx >= ring->capacity) {
    state.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  void* frames[128];
  const std::size_t want = std::min<std::size_t>(ring->max_depth + 2, 128);
  const int got = backtrace(frames, static_cast<int>(want));
  // frames[0] is this handler, frames[1] the kernel signal trampoline
  // (__restore_rt); the interrupted code starts at 2.
  constexpr int kSkip = 2;
  if (got <= kSkip) return;
  const std::size_t depth =
      std::min<std::size_t>(static_cast<std::size_t>(got - kSkip),
                            ring->max_depth);
  std::memcpy(&ring->pcs[idx * ring->max_depth], frames + kSkip,
              depth * sizeof(void*));
  ring->depths[idx] = static_cast<std::uint16_t>(depth);
  ring->count.store(idx + 1, std::memory_order_release);
}

bool TimerForcedOff() {
  static const bool forced = [] {
    const char* env = std::getenv("SUBEX_PROF_NO_TIMER");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return forced;
}

/// Creates (but does not arm) a per-thread CLOCK_MONOTONIC SIGPROF timer.
bool CreateTimerFor(int tid, timer_t* out) {
  sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  return timer_create(CLOCK_MONOTONIC, &sev, out) == 0;
}

void ArmTimer(timer_t timer, int sample_hz) {
  itimerspec spec;
  std::memset(&spec, 0, sizeof(spec));
  const long period_ns = 1000000000L / std::max(sample_hz, 1);
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  timer_settime(timer, 0, &spec, nullptr);
}

/// Finds or creates the slot of `tid` and arms its timer. Caller holds the
/// state mutex. A no-op while the profiler is stopped — `Start()`'s
/// `/proc/self/task` sweep picks every live thread up, so idle processes
/// pay nothing (no rings, no timers) for pools they create.
void AttachTidLocked(ProfilerState& state, int tid) {
  if (!state.running.load(std::memory_order_relaxed)) return;
  std::size_t free_slot = kMaxThreads;
  const std::size_t n = state.slot_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    const int slot_tid = state.slots[i].tid.load(std::memory_order_relaxed);
    if (slot_tid == tid) return;  // Already attached.
    if (slot_tid == 0 && free_slot == kMaxThreads) free_slot = i;
  }
  ThreadSlot* slot = nullptr;
  if (free_slot != kMaxThreads) {
    slot = &state.slots[free_slot];
  } else {
    if (n >= kMaxThreads) return;  // Table full: thread goes unsampled.
    slot = &state.slots[n];
  }
  if (slot->ring == nullptr) slot->ring = new SampleRing();
  if (slot->ring->capacity != state.options.ring_capacity ||
      slot->ring->max_depth != state.options.max_stack_depth) {
    slot->ring->Allocate(state.options.ring_capacity,
                         state.options.max_stack_depth);
  }
  slot->timer_armed = false;
  if (CreateTimerFor(tid, &slot->timer)) {
    slot->timer_armed = true;
    ArmTimer(slot->timer, state.options.sample_hz);
  }
  // Publish tid last: the handler may scan concurrently and must only see
  // slots whose ring is ready.
  slot->tid.store(tid, std::memory_order_release);
  if (free_slot == kMaxThreads) {
    state.slot_count.store(n + 1, std::memory_order_release);
  }
}

/// Registers every thread currently alive in this process.
void SweepProcessThreadsLocked(ProfilerState& state) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) AttachTidLocked(state, tid);
  }
  closedir(dir);
}

void HookThreadStart() { SamplingProfiler::Global().RegisterCurrentThread(); }
void HookThreadExit() { SamplingProfiler::Global().UnregisterCurrentThread(); }

/// Ensures the ThreadPool lifecycle hooks point at the profiler as soon as
/// any binary links this translation unit.
const bool g_hooks_installed = [] {
  SetThreadLifecycleHooks(&HookThreadStart, &HookThreadExit);
  return true;
}();

std::string SymbolizePc(void* pc,
                        std::map<void*, std::string>& cache) {
  const auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
  Dl_info info;
  // The return address points one instruction past the call; step back a
  // byte so a call ending a function does not resolve to the next symbol.
  void* lookup = static_cast<char*>(pc) - 1;
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name.assign(demangled);
      // Strip the argument list: collapsed stacks want one readable frame
      // per function, and ';' inside parameter packs would split frames.
      const std::size_t paren = name.find('(');
      if (paren != std::string::npos) name.resize(paren);
    } else {
      name.assign(info.dli_sname);
    }
    std::free(demangled);
  }
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", reinterpret_cast<std::size_t>(pc));
    name.assign(buf);
  }
  for (char& c : name) {
    if (c == ';' || c == '\n') c = ':';
    if (c == ' ') c = '_';
  }
  cache.emplace(pc, name);
  return name;
}

}  // namespace

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();
  return *profiler;
}

bool SamplingProfiler::SupportedOnThisSystem() {
  static const bool supported = [] {
    if (TimerForcedOff()) return false;
    timer_t probe;
    if (!CreateTimerFor(CurrentTid(), &probe)) return false;
    timer_delete(probe);
    return true;
  }();
  return supported;
}

bool SamplingProfiler::Start(const SamplingProfilerOptions& options,
                             std::string* error) {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.running.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "profiler already running";
    return false;
  }
  if (!SupportedOnThisSystem()) {
    if (error != nullptr) {
      *error = "per-thread SIGPROF timers unavailable on this system";
    }
    return false;
  }
  state.options = options;
  if (state.options.sample_hz <= 0) state.options.sample_hz = 97;
  state.options.max_stack_depth =
      std::min<std::size_t>(std::max<std::size_t>(state.options.max_stack_depth,
                                                  4),
                            126);
  state.options.ring_capacity =
      std::max<std::size_t>(state.options.ring_capacity, 16);
  if (!state.handler_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &ProfSignalHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      if (error != nullptr) *error = "sigaction(SIGPROF) failed";
      return false;
    }
    state.handler_installed = true;
  }
  // Warm glibc's unwinder outside signal context (first backtrace call
  // dlopens libgcc, which is not async-signal-safe).
  void* warm[4];
  backtrace(warm, 4);
  state.running.store(true, std::memory_order_release);
  SweepProcessThreadsLocked(state);
  MetricsRegistry::Global().GetGauge("prof.sampler_running").Set(1);
  MetricsRegistry::Global()
      .GetGauge("prof.sampler_hz")
      .Set(state.options.sample_hz);
  return true;
}

void SamplingProfiler::Stop() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.running.load(std::memory_order_relaxed)) return;
  state.running.store(false, std::memory_order_release);
  const std::size_t n = state.slot_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (state.slots[i].timer_armed) {
      timer_delete(state.slots[i].timer);
      state.slots[i].timer_armed = false;
    }
    // Release the tid so a later Start() re-attaches (and re-arms) the
    // thread instead of skipping it as already registered. The ring stays:
    // samples remain exportable until Clear().
    state.slots[i].tid.store(0, std::memory_order_release);
  }
  MetricsRegistry::Global().GetGauge("prof.sampler_running").Set(0);
  MetricsRegistry::Global().GetGauge("prof.sampler_hz").Set(0);
}

bool SamplingProfiler::running() const {
  return State().running.load(std::memory_order_acquire);
}

int SamplingProfiler::sample_hz() const {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.running.load(std::memory_order_relaxed)
             ? state.options.sample_hz
             : 0;
}

void SamplingProfiler::RegisterCurrentThread() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  AttachTidLocked(state, CurrentTid());
}

void SamplingProfiler::UnregisterCurrentThread() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  const int tid = CurrentTid();
  const std::size_t n = state.slot_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (state.slots[i].tid.load(std::memory_order_relaxed) != tid) continue;
    if (state.slots[i].timer_armed) {
      timer_delete(state.slots[i].timer);
      state.slots[i].timer_armed = false;
    }
    // Freeing the slot keeps the ring (and its samples) for export; a
    // later thread may reuse both.
    state.slots[i].tid.store(0, std::memory_order_release);
    return;
  }
}

std::uint64_t SamplingProfiler::samples() const {
  ProfilerState& state = State();
  std::uint64_t total = 0;
  const std::size_t n = state.slot_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const SampleRing* ring = state.slots[i].ring;
    if (ring != nullptr) total += ring->count.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t SamplingProfiler::dropped() const {
  return State().dropped.load(std::memory_order_relaxed);
}

std::string SamplingProfiler::ToCollapsedText() const {
  ProfilerState& state = State();
  // The mutex fences out Clear()/Stop(); the handler only appends past
  // `count`, so the slots read here are stable.
  std::lock_guard<std::mutex> lock(state.mutex);
  std::map<void*, std::string> symbol_cache;
  std::map<std::string, std::uint64_t> stacks;
  const std::size_t n = state.slot_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const SampleRing* ring = state.slots[i].ring;
    if (ring == nullptr) continue;
    const std::size_t count = ring->count.load(std::memory_order_acquire);
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t depth = ring->depths[s];
      if (depth == 0) continue;
      // Captured leaf-first; collapsed format wants root-first.
      std::string line;
      for (std::size_t f = depth; f-- > 0;) {
        const std::string frame =
            SymbolizePc(ring->pcs[s * ring->max_depth + f], symbol_cache);
        if (frame == "__restore_rt") continue;  // Nested-signal remnants.
        if (!line.empty()) line += ';';
        line += frame;
      }
      if (!line.empty()) ++stacks[line];
    }
  }
  // Highest count first so truncated views keep the hottest stacks.
  std::vector<std::pair<std::uint64_t, const std::string*>> ordered;
  ordered.reserve(stacks.size());
  for (const auto& [stack, count] : stacks) ordered.emplace_back(count, &stack);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return *a.second < *b.second;
            });
  std::ostringstream out;
  for (const auto& [count, stack] : ordered) {
    out << *stack << ' ' << count << '\n';
  }
  return out.str();
}

void SamplingProfiler::Clear() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  const std::size_t n = state.slot_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    SampleRing* ring = state.slots[i].ring;
    if (ring != nullptr) ring->count.store(0, std::memory_order_release);
  }
  state.dropped.store(0, std::memory_order_relaxed);
}

void RegisterProfProcessMetrics(MetricsRegistry* registry) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  reg.GetGauge("prof.perf_available")
      .Set(PerfCounterGroup::SupportedOnThisSystem() ? 1 : 0);
  reg.GetGauge("prof.sampler_supported")
      .Set(SamplingProfiler::SupportedOnThisSystem() ? 1 : 0);
  reg.GetGauge("prof.sampler_running");
  reg.GetGauge("prof.sampler_hz");
}

#else  // !__linux__

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();
  return *profiler;
}
bool SamplingProfiler::SupportedOnThisSystem() { return false; }
bool SamplingProfiler::Start(const SamplingProfilerOptions&,
                             std::string* error) {
  if (error != nullptr) *error = "sampling profiler requires Linux";
  return false;
}
void SamplingProfiler::Stop() {}
bool SamplingProfiler::running() const { return false; }
int SamplingProfiler::sample_hz() const { return 0; }
void SamplingProfiler::RegisterCurrentThread() {}
void SamplingProfiler::UnregisterCurrentThread() {}
std::uint64_t SamplingProfiler::samples() const { return 0; }
std::uint64_t SamplingProfiler::dropped() const { return 0; }
std::string SamplingProfiler::ToCollapsedText() const { return {}; }
void SamplingProfiler::Clear() {}

void RegisterProfProcessMetrics(MetricsRegistry* registry) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  reg.GetGauge("prof.perf_available").Set(0);
  reg.GetGauge("prof.sampler_supported").Set(0);
}

#endif  // __linux__

}  // namespace subex
