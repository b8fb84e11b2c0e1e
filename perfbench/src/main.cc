// perfbench: the repository's benchmark binary. Usually started through
// perfbench/run.py, which builds it first.
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--detect-delay FRACTION]
//
// --trace 0 measures the end-to-end metrics with the span recorder off and
// also prints the wall-clock figures, which are not gated.
// --trace 1 runs the workload twice for S/2 seconds each, untraced and then
// traced, and reports the per-layer metrics of the traced half plus
// trace.overhead_ratio (traced / untraced cpu_ms_per_op). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --detect-delay (sensitivity self-check only) makes every call of the
// `detect` layer spin FRACTION of its own duration.
// A run fails (exit 1, "correct": false) when an output check fails, an
// operation fails, or an end-to-end metric was never measured. Unknown flags
// are an error.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks that it does).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_op", "ms"},
    {"rss_mb", "MB"},
};

// Wall-clock figures of the end-to-end run. They are printed for reading,
// not gated: on a shared host they follow the neighbours' load (see
// perfbench/README.md, "Why CPU time").
const MetricSpec kWallClock[] = {
    {"batch_s", "s"},           {"p50_ms", "ms"},
    {"p99_ms", "ms"},           {"capacity_rps", "1/s"},
    {"freshness_p50_ms", "ms"}, {"freshness_p99_ms", "ms"},
};

const MetricSpec kPerLayer[] = {
    {"detect.calls", "1/op"},
    {"detect.busy_ms", "ms/op"},
    {"detect.call_p50_ms", "ms"},
    {"detect.call_p99_ms", "ms"},
    {"detect.LOF.busy_ms", "ms/op"},
    {"detect.FastABOD.busy_ms", "ms/op"},
    {"detect.iForest.busy_ms", "ms/op"},
    {"serve.lookups", "1/op"},
    {"serve.hit_ratio", "ratio"},
    {"serve.dedup_joins", "1/op"},
    {"serve.self_ms", "ms/op"},
    {"serve.lookup_p50_ms", "ms"},
    {"mem.evictions", "1/op"},
    {"mem.reclaim_passes", "1/op"},
    {"mem.used_bytes", "B"},
    {"mem.recompute_ratio", "ratio"},
    {"explain.calls", "1/op"},
    {"explain.busy_ms", "ms/op"},
    {"explain.self_ms", "ms/op"},
    {"explain.lookups_per_call", "count"},
    {"explain.call_p99_ms", "ms"},
    {"core.busy_ms", "ms/op"},
    {"core.self_ms", "ms/op"},
    {"core.pool_utilization", "ratio"},
    {"net.requests", "count"},
    {"net.queue_wait_p50_ms", "ms"},
    {"net.queue_wait_p99_ms", "ms"},
    {"net.server_p50_ms", "ms"},
    {"net.wire_mean_ms", "ms"},
    {"net.write_mean_ms", "ms"},
    {"net.bytes_per_request", "B"},
    {"net.busy_rejections", "count"},
    {"online.ingest_p50_ms", "ms"},
    {"online.ingest_p99_ms", "ms"},
    {"online.advance_ingest_p50_ms", "ms"},
    {"online.advances", "count"},
    {"online.epoch_lag_mean", "epochs"},
    {"online.stale_ratio", "ratio"},
    {"online.invalidated_entries", "count"},
    {"online.wal_bytes_per_row", "B"},
    {"online.reindex_busy_ms", "ms/op"},
    {"gen.late_p99_ms", "ms"},
    {"gen.behind_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.tiling_gap_ratio", "ratio"},
    {"setup.data_s", "s"},
    {"setup.warmup_s", "s"},
};

constexpr const char* kUsage =
    "usage: perfbench --workload grid_batch|serve_warm|serve_cold|"
    "online_stream --seed N [--seconds S] [--trace 0|1] [--work-dir DIR] "
    "[--detect-delay FRACTION]\n";

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Per-layer metrics derived from the traced phase's spans.
void AddSpanMetrics(const std::vector<Span>& spans, PhaseResult* phase) {
  const TraceSummary t = Summarize(spans);
  const double ops = std::max(phase->ops, 1.0);
  auto per_op = [&](double v) { return v / ops; };

  LayerTotals detect = t.at(Layer::kDetect);
  phase->Set("detect.calls", per_op(static_cast<double>(detect.calls)), "1/op");
  phase->Set("detect.busy_ms", per_op(detect.busy_ms), "ms/op");
  phase->Set("detect.call_p50_ms", Quantile(detect.call_ms, 0.50), "ms");
  phase->Set("detect.call_p99_ms", Quantile(detect.call_ms, 0.99), "ms");
  for (const char* name : {"LOF", "FastABOD", "iForest"}) {
    const auto it = detect.busy_ms_by_name.find(name);
    phase->Set(std::string("detect.") + name + ".busy_ms",
               per_op(it == detect.busy_ms_by_name.end() ? 0.0 : it->second),
               "ms/op");
  }
  if (!phase->reindex_detector.empty()) {
    const auto it = detect.busy_ms_by_name.find(phase->reindex_detector);
    phase->Set("online.reindex_busy_ms",
               per_op(it == detect.busy_ms_by_name.end() ? 0.0 : it->second),
               "ms/op");
  }

  LayerTotals serve = t.at(Layer::kServe);
  phase->Set("serve.self_ms", per_op(serve.self_ms), "ms/op");
  phase->Set("serve.lookup_p50_ms", Quantile(serve.call_ms, 0.50), "ms");

  LayerTotals explain = t.at(Layer::kExplain);
  phase->Set("explain.calls", per_op(static_cast<double>(explain.calls)),
             "1/op");
  phase->Set("explain.busy_ms", per_op(explain.busy_ms), "ms/op");
  phase->Set("explain.self_ms", per_op(explain.self_ms), "ms/op");
  phase->Set("explain.lookups_per_call",
             explain.calls == 0
                 ? 0.0
                 : static_cast<double>(t.lookups_under_explain) /
                       static_cast<double>(explain.calls),
             "count");
  phase->Set("explain.call_p99_ms", Quantile(explain.call_ms, 0.99), "ms");

  const LayerTotals& core = t.at(Layer::kCore);
  phase->Set("core.busy_ms", per_op(core.busy_ms), "ms/op");
  phase->Set("core.self_ms", per_op(core.self_ms), "ms/op");
  phase->Set("core.pool_utilization",
             core.busy_ms > 0.0 && phase->pool_threads > 0
                 ? explain.busy_ms /
                       (core.busy_ms * static_cast<double>(phase->pool_threads))
                 : 0.0,
             "ratio");

  phase->Set("trace.tiling_gap_ratio", t.tiling_gap_ratio, "ratio");
  phase->Set("mem.recompute_ratio",
             phase->detect_computes == 0
                 ? 0.0
                 : static_cast<double>(phase->detect_recomputes) /
                       static_cast<double>(phase->detect_computes),
             "ratio");
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_build/run";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n%s", flag.c_str(),
                   kUsage);
      return 2;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = ParseU64(value, &config.seed);
      have_seed = ok;
    } else if (flag == "--seconds") {
      ok = ParseDouble(value, &config.seconds) && config.seconds > 0.0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--detect-delay") {
      double fraction = 0.0;
      ok = ParseDouble(value, &fraction) && fraction >= 0.0;
      if (ok) SetDetectDelay(fraction);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n%s", flag.c_str(),
                   kUsage);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n%s",
                   flag.c_str(), value.c_str(), kUsage);
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    std::fprintf(stderr, "perfbench: --workload and --seed are required\n%s",
                 kUsage);
    return 2;
  }
  std::function<PhaseResult(const RunConfig&, double, bool)> run;
  if (config.workload == "grid_batch") {
    run = RunGridBatch;
  } else if (config.workload == "serve_warm") {
    run = RunServeWarm;
  } else if (config.workload == "serve_cold") {
    run = RunServeCold;
  } else if (config.workload == "online_stream") {
    run = RunOnlineStream;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n%s",
                 config.workload.c_str(), kUsage);
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 config.work_dir.c_str(), error.message().c_str());
    return 2;
  }

  PhaseResult result;
  std::uint64_t attempted = 0, failed = 0, check_failures = 0, checks = 0;
  std::vector<std::string> defects;
  auto absorb = [&](const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
    checks += phase.checks;
    check_failures += phase.check_failures;
    for (const std::string& d : phase.defects) defects.push_back(d);
  };
  if (!config.trace) {
    result = run(config, config.seconds, /*traced=*/false);
    absorb(result);
  } else {
    const PhaseResult untraced = run(config, config.seconds / 2, false);
    absorb(untraced);
    SpanRecorder::Get().TakeAll();  // nothing should be there; be sure
    result = run(config, config.seconds / 2, true);
    absorb(result);
    const std::vector<Span> spans = SpanRecorder::Get().TakeAll();
    AddSpanMetrics(spans, &result);
    result.Set("trace.overhead_ratio",
               untraced.primary > 0.0 ? result.primary / untraced.primary : 0.0,
               "ratio");
    const std::string path =
        config.work_dir + "/spans-" + config.workload + ".tsv";
    if (WriteSpans(spans, path)) {
      std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("cannot write spans to %s\n", path.c_str());
    }
  }
  result.Set("rss_mb", PeakRssMb(), "MB");

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::string json = "{\"metrics\": {";
  bool first = true;
  bool finite = true;
  const MetricSpec* specs = config.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = config.trace ? std::size(kPerLayer)
                                         : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    const MetricSpec& spec = specs[i];
    const auto it = result.metrics.find(spec.name);
    const bool measured = it != result.metrics.end();
    const double value = measured ? it->second.value : 0.0;
    if (!std::isfinite(value)) finite = false;
    // Every end-to-end metric applies to every workload; a per-layer metric
    // of a layer the workload does not use is reported as 0.
    if (!measured && !config.trace) {
      defects.push_back(std::string(spec.name) + " was never measured");
    }
    std::printf("  %-30s %14.6f %s%s\n", spec.name, value, spec.unit,
                measured ? "" : " (not measured on this workload)");
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + JsonNumber(std::isfinite(value) ? value : 0.0) +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  if (!config.trace) {
    std::printf("wall clock, not gated:\n");
    for (const MetricSpec& spec : kWallClock) {
      const auto it = result.metrics.find(spec.name);
      if (it == result.metrics.end()) continue;
      const std::string note =
          std::string(spec.name) == "p99_ms"
              ? " (" + std::to_string(result.latency_samples) + " samples)"
              : "";
      std::printf("  %-30s %14.6f %s%s\n", spec.name, it->second.value,
                  spec.unit, note.c_str());
    }
  }
  if (!finite) defects.push_back("a metric was not a finite number");
  if (attempted == 0) defects.push_back("no operation was attempted");
  const double error_ratio =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  %-30s %14.6f ratio (%llu failed / %llu attempted; %llu of "
              "%llu output checks failed)\n",
              "error_ratio", error_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(check_failures),
              static_cast<unsigned long long>(checks));
  for (const std::string& d : defects) std::printf("DEFECT: %s\n", d.c_str());
  // Every failed operation and failed check is a DEFECT line too
  // (PhaseResult::Fail), so any nonzero error_ratio fails the run.
  const bool correct = defects.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), json.c_str() + 1);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
