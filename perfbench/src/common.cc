#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "obs/registry.h"

namespace perfbench {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }


double PeakRssMb() {
  // VmHWM rather than getrusage: ResetPeakRss lowers VmHWM, while
  // getrusage keeps the high-water mark that exited threads left behind.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double MsBetween(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

void SleepUntil(std::int64_t until_ns) {
  const std::int64_t now = NowNs();
  if (until_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(until_ns - now));
  }
}

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Append(LoadResult* into, const LoadResult& from) {
  into->late_ms.insert(into->late_ms.end(), from.late_ms.begin(),
                       from.late_ms.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wall_s += from.wall_s;
}

void SliceStats::AddLatencies(const std::vector<double>& latency_ms) {
  for (double ms : latency_ms) {
    open_.push_back(ms);
    if (open_.size() < kMinWindowSamples) continue;
    if (!full_.empty()) {
      p50_.push_back(Quantile(full_, 0.50));
      p99_.push_back(Quantile(full_, 0.99));
    }
    full_.swap(open_);
    open_.clear();
  }
  samples_ += latency_ms.size();
}

void SliceStats::AddRate(const LoadResult& closed) {
  if (closed.wall_s <= 0.0) return;
  rate_.push_back(static_cast<double>(closed.attempted - closed.failed) /
                  closed.wall_s);
}

void SliceStats::AddCpu(std::int64_t cpu_ns, double ops) {
  if (ops > 0.0) {
    cpu_ms_per_op_.push_back(static_cast<double>(cpu_ns) * 1e-6 / ops);
  }
}

void SliceStats::AddTo(PhaseResult* out, const char* p50_name,
                       const char* p99_name) const {
  if (samples_ > 0) {
    std::vector<double> last = full_;
    last.insert(last.end(), open_.begin(), open_.end());
    std::vector<double> p50 = p50_, p99 = p99_;
    p50.push_back(Quantile(last, 0.50));
    p99.push_back(Quantile(last, 0.99));
    out->Set(p50_name, Median(std::move(p50)), "ms");
    out->Set(p99_name, Median(std::move(p99)), "ms");
  }
  if (!rate_.empty()) {
    const double capacity = Median(rate_);
    out->Set("capacity_rps", capacity, "1/s");
    out->Set("batch_s", capacity > 0.0 ? 1000.0 / capacity : 0.0, "s");
  }
  if (!cpu_ms_per_op_.empty()) {
    out->Set("cpu_ms_per_op", Median(cpu_ms_per_op_), "ms");
  }
}

void AddGeneratorMetrics(LoadResult& load, PhaseResult* out) {
  const double behind = static_cast<double>(std::count_if(
      load.late_ms.begin(), load.late_ms.end(),
      [](double late) { return late > 1.0; }));
  out->Set("gen.late_p99_ms", Quantile(load.late_ms, 0.99), "ms");
  out->Set("gen.behind_ratio",
           load.late_ms.empty()
               ? 0.0
               : behind / static_cast<double>(load.late_ms.size()),
           "ratio");
}

void AddNetMetrics(double rtt_mean_ms, double requests,
                   std::uint64_t busy_rejections, PhaseResult* out) {
  subex::MetricsRegistry& registry = subex::MetricsRegistry::Global();
  const subex::HistogramSnapshot queue_wait =
      registry.GetHistogram("serve.queue_wait").snapshot();
  const subex::HistogramSnapshot request =
      registry.GetHistogram("serve.request").snapshot();
  const subex::HistogramSnapshot write =
      registry.GetHistogram("net.write").snapshot();
  const double bytes =
      static_cast<double>(registry.GetCounter("net.bytes_sent").value() +
                          registry.GetCounter("net.bytes_received").value());
  out->Set("net.requests", requests, "count");
  out->Set("net.queue_wait_p50_ms", queue_wait.ValueAtQuantile(0.50) * 1e-6,
           "ms");
  out->Set("net.queue_wait_p99_ms", queue_wait.ValueAtQuantile(0.99) * 1e-6,
           "ms");
  out->Set("net.server_p50_ms", request.ValueAtQuantile(0.50) * 1e-6, "ms");
  out->Set("net.wire_mean_ms", rtt_mean_ms - request.MeanNs() * 1e-6, "ms");
  out->Set("net.write_mean_ms", write.MeanNs() * 1e-6, "ms");
  out->Set("net.bytes_per_request", requests > 0.0 ? bytes / requests : 0.0,
           "B");
  out->Set("net.busy_rejections", static_cast<double>(busy_rejections),
           "count");
}

void SetupTimes::AddTo(PhaseResult* out) const {
  out->Set("setup_s", Median(total_s), "s");
  out->Set("setup.data_s", Median(data_s), "s");
  out->Set("setup.warmup_s", Median(warmup_s), "s");
}

}  // namespace perfbench
