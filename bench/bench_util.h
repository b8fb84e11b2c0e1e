#ifndef SUBEX_BENCH_BENCH_UTIL_H_
#define SUBEX_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure/table regeneration binaries: command-line
// profile selection, suite assembly, and cost-based cell skipping (the
// paper itself skipped configurations requiring millions of subspace
// evaluations; the quick profile skips proportionally earlier).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "subex/subex.h"

namespace subex::bench {

/// The `q`-quantile (q in [0, 1]) of `values` by the nearest-rank rule the
/// load benches report: sorts `values` in place and indexes
/// round(q * (n - 1)). Edge cases: n = 0 returns 0.0, n = 1 returns the
/// single sample regardless of q.
inline double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values.front();
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

/// True when `flag` (e.g. "--stats") appears anywhere in argv.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// The argument following `flag` ("--json out.json" -> "out.json"), or
/// `fallback` when the flag is absent or the last token.
inline std::string FlagValue(int argc, char** argv, const char* flag,
                             const std::string& fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Integer flag value ("--metrics-port 9109" -> 9109), `fallback` when
/// absent or unparsable.
inline int IntFlag(int argc, char** argv, const char* flag, int fallback) {
  const std::string value = FlagValue(argc, argv, flag);
  if (value.empty()) return fallback;
  return std::atoi(value.c_str());
}

/// `--profile-out` support shared by the bench mains: arms the global
/// `SamplingProfiler` (no-op with a warning where per-thread timers are
/// unavailable). `hz <= 0` keeps the default rate.
inline void StartProfilerIfRequested(const std::string& profile_out, int hz) {
  if (profile_out.empty()) return;
  SamplingProfilerOptions options;
  if (hz > 0) options.sample_hz = hz;
  std::string error;
  if (SamplingProfiler::Global().Start(options, &error)) {
    std::printf("profiling at %d Hz -> %s\n", options.sample_hz,
                profile_out.c_str());
  } else {
    std::printf("profiler disabled: %s\n", error.c_str());
  }
}

/// Stops the profiler and writes the collapsed-stack flamegraph text
/// (`frame;frame count` lines — flamegraph.pl / speedscope input) to
/// `profile_out`.
inline void WriteProfileIfRequested(const std::string& profile_out) {
  if (profile_out.empty()) return;
  SamplingProfiler& profiler = SamplingProfiler::Global();
  profiler.Stop();
  const std::string collapsed = profiler.ToCollapsedText();
  std::FILE* file = std::fopen(profile_out.c_str(), "w");
  if (file == nullptr) {
    std::printf("cannot open %s for writing\n", profile_out.c_str());
    return;
  }
  std::fwrite(collapsed.data(), 1, collapsed.size(), file);
  std::fclose(file);
  std::printf("wrote %llu samples (%llu dropped) to %s\n",
              static_cast<unsigned long long>(profiler.samples()),
              static_cast<unsigned long long>(profiler.dropped()),
              profile_out.c_str());
}

/// `--metrics-port` support: binds the standalone scrape endpoint so
/// counter/histogram series are observable mid-run (parity with
/// `bench_stream_serve`, which serves /metrics from its `ExplainServer`).
/// Returns false (after a warning) when the port is taken; `port < 0`
/// means not requested.
inline bool StartMetricsEndpointIfRequested(MetricsHttpServer& server,
                                            int port) {
  if (port < 0) return false;
  std::string error;
  if (!server.Start(static_cast<std::uint16_t>(port), &error)) {
    std::printf("metrics endpoint disabled: %s\n", error.c_str());
    return false;
  }
  std::printf("serving GET /metrics on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  return true;
}

/// Machine-readable companion to the human tables: benches append one
/// JsonObject per measured cell plus run-level metadata, and `WriteTo`
/// emits `{"meta":{...},"rows":[{...},...]}` for downstream tooling
/// (regression tracking, plotting) without a JSON dependency.
class JsonTimingReport {
 public:
  void SetMeta(JsonObject meta) { meta_ = std::move(meta); }
  void AddRow(const JsonObject& row) { rows_.push_back(row.Build()); }

  std::string Build() const {
    std::string out = "{\"meta\":" + meta_.Build() + ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ",";
      out += rows_[i];
    }
    out += "]}";
    return out;
  }

  /// Writes the report to `path`; returns false (and prints) on failure.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write json report to %s\n", path.c_str());
      return false;
    }
    const std::string body = Build();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (ok) std::printf("json report written to %s\n", path.c_str());
    return ok;
  }

  std::size_t num_rows() const { return rows_.size(); }

 private:
  JsonObject meta_;
  std::vector<std::string> rows_;
};

/// Parses `--full` (paper profile) / `--seed N` / `--threads N` (ThreadPool
/// size, 0 = hardware concurrency) / `--no-cache` (bypass the scoring
/// service cache) from argv; everything else is ignored. Prints the chosen
/// profile banner.
inline TestbedProfile ParseProfile(int argc, char** argv,
                                   const char* binary_name) {
  TestbedProfile profile = TestbedProfile::Quick();
  int threads = profile.num_threads;
  bool no_cache = false;
  std::uint64_t seed = profile.seed;
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      profile = TestbedProfile::Paper();
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      seed_set = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      no_cache = true;
    }
  }
  if (seed_set) profile.seed = seed;
  profile.num_threads = threads;
  profile.cache_scores = !no_cache;
  std::printf("== %s ==\n", binary_name);
  std::printf(
      "profile: %s (datasets scaled x%.2f, max dataset dim %d, "
      "max explanation dim %d%s)\n",
      profile.name.c_str(), profile.dataset_scale, profile.max_dataset_dim,
      profile.max_explanation_dim,
      profile.name == "quick"
          ? "; run with --full for the paper-scale configuration"
          : "");
  std::printf("serving: %d thread(s)%s, score cache %s\n", profile.num_threads,
              profile.num_threads == 0 ? " (auto)" : "",
              profile.cache_scores ? "on (--no-cache to disable)" : "OFF");
  return profile;
}

/// Per-detector budget of detector invocations (subspace scorings) a single
/// evaluation cell may cost before the bench skips it, mirroring the
/// paper's own skipped configurations. The quick profile uses tight
/// budgets; the paper profile uses the (approximate) limits §4.1/§4.2
/// report (e.g. "we run iForest only up to 4d explanations on 70d/100d").
inline std::uint64_t ScoreBudget(const TestbedProfile& profile,
                                 DetectorKind kind) {
  const bool quick = profile.name == "quick";
  switch (kind) {
    case DetectorKind::kLof:
      return quick ? 20000 : 3000000;
    case DetectorKind::kFastAbod:
      return quick ? 10000 : 400000;
    case DetectorKind::kIsolationForest:
      return quick ? 5000 : 900000;
  }
  return 0;
}

/// Estimated detector invocations of one point-explainer cell.
inline std::uint64_t EstimatePointCellScores(
    const TestbedProfile& profile, PointExplainerKind kind, int num_features,
    int dim, int num_points) {
  std::uint64_t per_point = 0;
  if (kind == PointExplainerKind::kBeam) {
    per_point = Beam::CountScoredSubspaces(num_features, dim,
                                           profile.beam_width);
  } else {
    per_point = static_cast<std::uint64_t>(profile.refout_pool_size) +
                static_cast<std::uint64_t>(profile.max_results);
  }
  return per_point * static_cast<std::uint64_t>(num_points);
}

/// Estimated detector invocations of one summarizer cell.
inline std::uint64_t EstimateSummaryCellScores(const TestbedProfile& profile,
                                               SummarizerKind kind,
                                               int num_features, int dim) {
  if (kind == SummarizerKind::kHics) {
    // The search is detector-free; only the final ranking scores.
    return profile.max_results;
  }
  std::uint64_t candidates = CombinationCount(num_features, dim);
  if (profile.lookout_max_candidates > 0 &&
      candidates > profile.lookout_max_candidates) {
    candidates = profile.lookout_max_candidates;
  }
  return candidates;
}

/// Number of evaluated points for a point-explainer cell under the profile.
inline int CellPoints(const TestbedProfile& profile,
                      const GroundTruth& ground_truth, int dim) {
  const int available =
      static_cast<int>(ground_truth.PointsExplainedAtDimension(dim).size());
  if (profile.max_points_per_cell <= 0) return available;
  return std::min(available, profile.max_points_per_cell);
}

/// Builds both halves of the testbed, printing progress (the real-suite
/// ground-truth search is the slow part). Pass a pool to parallelize the
/// exhaustive ground-truth sweep.
inline std::vector<TestbedDataset> BuildFullTestbed(
    const TestbedProfile& profile, bool synthetic, bool real,
    ThreadPool* pool = nullptr) {
  std::vector<TestbedDataset> all;
  if (synthetic) {
    std::printf("generating synthetic (subspace-outlier) suite...\n");
    for (TestbedDataset& d : BuildSyntheticSuite(profile)) {
      all.push_back(std::move(d));
    }
  }
  if (real) {
    std::printf(
        "generating real-dataset stand-ins + exhaustive LOF ground truth "
        "(the paper's §3.2 procedure)...\n");
    for (TestbedDataset& d : BuildRealSuite(profile, pool)) {
      all.push_back(std::move(d));
    }
  }
  std::printf("\n");
  return all;
}

/// Per-dataset bundle of one detector of each kind plus a scoring service
/// over it, shared by every pipeline row of that dataset so hit rates
/// accumulate across explainers and explanation dimensionalities.
struct DetectorServices {
  std::vector<DetectorKind> kinds;
  std::vector<std::unique_ptr<Detector>> detectors;
  std::vector<std::unique_ptr<ScoringService>> services;

  ScoringService& For(DetectorKind kind) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (kinds[i] == kind) return *services[i];
    }
    SUBEX_CHECK_MSG(false, "unknown detector kind");
    return *services.front();
  }
};

/// Builds one service per detector kind over `data`, with the profile's
/// cache budgets (or caching off under `--no-cache`).
inline DetectorServices MakeDetectorServices(const TestbedProfile& profile,
                                             const Dataset& data,
                                             ThreadPool* pool) {
  DetectorServices bundle;
  bundle.kinds = AllDetectorKinds();
  for (DetectorKind kind : bundle.kinds) {
    bundle.detectors.push_back(MakeTestbedDetector(kind, profile));
    bundle.services.push_back(std::make_unique<ScoringService>(
        *bundle.detectors.back(), data, MakeServiceOptions(profile), pool));
  }
  return bundle;
}

/// Prints one "cache" stats line per detector service of a dataset.
inline void PrintServiceStats(DetectorServices& bundle) {
  for (std::size_t i = 0; i < bundle.kinds.size(); ++i) {
    std::printf("%-8s cache: %s\n", DetectorKindName(bundle.kinds[i]),
                bundle.services[i]->stats().ToString().c_str());
  }
}

/// One JSON object keyed by detector name, each value the service's
/// ServiceStatsSnapshot::ToJson() — the same shape the kStats endpoint of
/// ExplainServer nests under "services".
inline std::string ServiceStatsJson(DetectorServices& bundle) {
  JsonObject obj;
  for (std::size_t i = 0; i < bundle.kinds.size(); ++i) {
    obj.AddRaw(DetectorKindName(bundle.kinds[i]),
               bundle.services[i]->stats().ToJson());
  }
  return obj.Build();
}

/// "MAP 0.83" or "skip" formatting for figure tables.
inline std::string MapOrSkip(bool skipped, double map) {
  return skipped ? std::string("-") : FormatDouble(map);
}

}  // namespace subex::bench

#endif  // SUBEX_BENCH_BENCH_UTIL_H_
