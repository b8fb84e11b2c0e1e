#include "prof/perf_counters.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace subex {
namespace {

bool PerfForcedOff() {
  static const bool forced = [] {
    const char* env = std::getenv("SUBEX_PROF_NO_PERF");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return forced;
}

#if defined(__linux__)

int OpenHardwareCounter(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = group_fd < 0 ? 1 : 0;  // Leader starts stopped.
  attr.exclude_kernel = 1;  // Userspace only: works at perf_event_paranoid=2.
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd, /*flags=*/0));
}

#endif  // __linux__

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
#if defined(__linux__)
  if (PerfForcedOff()) return;
  leader_fd_ = OpenHardwareCounter(PERF_COUNT_HW_CPU_CYCLES, -1);
  if (leader_fd_ < 0) return;  // No PMU / denied: stay a no-op.
  slots_ = 1;                  // Leader occupies slot 0.
  instructions_fd_ = OpenHardwareCounter(PERF_COUNT_HW_INSTRUCTIONS, leader_fd_);
  if (instructions_fd_ >= 0) slot_instructions_ = slots_++;
  llc_misses_fd_ = OpenHardwareCounter(PERF_COUNT_HW_CACHE_MISSES, leader_fd_);
  if (llc_misses_fd_ >= 0) slot_llc_misses_ = slots_++;
  branch_misses_fd_ = OpenHardwareCounter(PERF_COUNT_HW_BRANCH_MISSES,
                                          leader_fd_);
  if (branch_misses_fd_ >= 0) slot_branch_misses_ = slots_++;
  ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#endif
}

PerfCounterGroup::~PerfCounterGroup() {
#if defined(__linux__)
  if (branch_misses_fd_ >= 0) close(branch_misses_fd_);
  if (llc_misses_fd_ >= 0) close(llc_misses_fd_);
  if (instructions_fd_ >= 0) close(instructions_fd_);
  if (leader_fd_ >= 0) close(leader_fd_);
#endif
}

PerfCounterValues PerfCounterGroup::Read() const {
  PerfCounterValues values;
#if defined(__linux__)
  if (leader_fd_ < 0) return values;
  // PERF_FORMAT_GROUP layout: u64 nr, then one u64 per member in open
  // order. 1 + 4 members max.
  std::uint64_t buf[1 + 4] = {0};
  const ssize_t got = read(leader_fd_, buf, sizeof(buf));
  if (got < static_cast<ssize_t>(sizeof(std::uint64_t) * (1 + slots_))) {
    return values;
  }
  values.valid = true;
  values.cycles = buf[1];
  if (slot_instructions_ >= 0) values.instructions = buf[1 + slot_instructions_];
  if (slot_llc_misses_ >= 0) values.llc_misses = buf[1 + slot_llc_misses_];
  if (slot_branch_misses_ >= 0) {
    values.branch_misses = buf[1 + slot_branch_misses_];
  }
#endif
  return values;
}

PerfCounterGroup& PerfCounterGroup::ThisThread() {
  thread_local PerfCounterGroup group;
  return group;
}

bool PerfCounterGroup::SupportedOnThisSystem() {
  static const bool supported = [] {
    if (PerfForcedOff()) return false;
    PerfCounterGroup probe;
    return probe.available();
  }();
  return supported;
}

ProfCounterSet ProfCounterSet::ForKernel(const std::string& label,
                                         MetricsRegistry* registry) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  ProfCounterSet set;
  set.cycles = &reg.GetCounter("prof.cycles." + label);
  set.instructions = &reg.GetCounter("prof.instructions." + label);
  set.llc_misses = &reg.GetCounter("prof.llc_misses." + label);
  set.branch_misses = &reg.GetCounter("prof.branch_misses." + label);
  set.spans = &reg.GetCounter("prof.spans." + label);
  set.ipc_milli = &reg.GetGauge("prof.ipc_milli." + label);
  set.llc_miss_per_kilo_inst =
      &reg.GetGauge("prof.llc_miss_per_kilo_inst." + label);
  return set;
}

CounterSpan::CounterSpan(const ProfCounterSet* set) : set_(set) {
  if (set_ != nullptr) start_ = PerfCounterGroup::ThisThread().Read();
}

CounterSpan::~CounterSpan() {
  if (set_ == nullptr) return;
  if (set_->spans != nullptr) set_->spans->Increment();
  if (!start_.valid) return;
  const PerfCounterValues end = PerfCounterGroup::ThisThread().Read();
  if (!end.valid) return;
  set_->cycles->Increment(end.cycles - start_.cycles);
  set_->instructions->Increment(end.instructions - start_.instructions);
  set_->llc_misses->Increment(end.llc_misses - start_.llc_misses);
  set_->branch_misses->Increment(end.branch_misses - start_.branch_misses);
  // Gauges carry the cumulative ratios so a scrape reads the lifetime IPC
  // and miss rate of this kernel, not one span's noisy sample.
  PerfCounterValues totals;
  totals.valid = true;
  totals.cycles = set_->cycles->value();
  totals.instructions = set_->instructions->value();
  totals.llc_misses = set_->llc_misses->value();
  set_->ipc_milli->Set(totals.IpcMilli());
  set_->llc_miss_per_kilo_inst->Set(totals.LlcMissPerKiloInst());
}

}  // namespace subex
