// The benchmark's workloads. Each runs one measured phase: `setups`
// repeated set-ups (the last one is kept), then `seconds` of load with the
// span recorder on when `traced`, then its output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

PhaseResult RunGridBatch(const RunConfig& config, double seconds, bool traced);
PhaseResult RunServeWarm(const RunConfig& config, double seconds, bool traced);
PhaseResult RunServeCold(const RunConfig& config, double seconds, bool traced);
PhaseResult RunOnlineStream(const RunConfig& config, double seconds,
                            bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
