// Detector microbenchmarks (§3.1 / §4.3): the cost of scoring ONE subspace
// with each detector on a ~1000-point dataset -- the paper reports
// "to score a single subspace LOF needed 0.05, iForest 0.2 and Fast ABOD 2
// seconds approximately", i.e. the ordering LOF < iForest < FastABOD.
//
// Uses google-benchmark. Run with --benchmark_filter=... as usual; dataset
// size is parameterized via the benchmark Range argument. `--json <path>`
// additionally writes the runs in the repo's JsonTimingReport shape (the
// same format every other bench emits), so CI can archive detector timings
// alongside the figure benches without parsing google-benchmark's own
// console or JSON output.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "detect/simd.h"
#include "subex/subex.h"

namespace {

using namespace subex;

Dataset MakeData(int n, int dims) {
  Rng rng(42);
  Matrix m(n, dims);
  for (int p = 0; p < n; ++p) {
    for (int f = 0; f < dims; ++f) m(p, f) = rng.Uniform();
  }
  return Dataset(std::move(m));
}

// The label of the iForest and kNN-family benchmarks: the kernel path the
// process dispatched to ("avx512" or "scalar"), so a report shows which
// inner loops ran.
const char* PathLabel() { return KernelPathName(ActiveKernelPath()); }

// Scores a fixed 3d subspace of a `state.range(0)`-point dataset. Each
// iteration runs under a CounterSpan, so `--metrics-port` scrapes see live
// per-kernel cycles/IPC/LLC-miss series (`subex_prof_*_kernel_<name>_*`)
// next to google-benchmark's wall clock — the evidence the SIMD roadmap
// item is judged against.
template <typename DetectorT>
void BM_ScoreSubspace(benchmark::State& state, DetectorT detector) {
  const Dataset data = MakeData(static_cast<int>(state.range(0)), 10);
  const Subspace subspace({1, 4, 7});
  const ProfCounterSet prof =
      ProfCounterSet::ForKernel("kernel." + detector.name());
  state.SetLabel(PathLabel());
  for (auto _ : state) {
    CounterSpan prof_span(&prof);
    benchmark::DoNotOptimize(detector.Score(data, subspace));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Lof(benchmark::State& state) { BM_ScoreSubspace(state, Lof(15)); }

void BM_FastAbod(benchmark::State& state) {
  BM_ScoreSubspace(state, FastAbod(10));
}

void BM_IForestPaperSettings(benchmark::State& state) {
  IsolationForest::Options options;  // 100 trees, 256 subsample, 10 reps.
  BM_ScoreSubspace(state, IsolationForest(options));
}

void BM_IForestSingleRepetition(benchmark::State& state) {
  IsolationForest::Options options;
  options.num_repetitions = 1;
  BM_ScoreSubspace(state, IsolationForest(options));
}

// Subspace dimensionality sweep: distance-based detector cost is linear in
// the subspace width, iForest's nearly flat.
void BM_LofByDim(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const Dataset data = MakeData(500, 16);
  std::vector<FeatureId> features;
  for (int f = 0; f < dim; ++f) features.push_back(f);
  const Subspace subspace(features);
  const Lof lof(15);
  const ProfCounterSet prof = ProfCounterSet::ForKernel("kernel.LOF");
  state.SetLabel(PathLabel());
  for (auto _ : state) {
    CounterSpan prof_span(&prof);
    benchmark::DoNotOptimize(lof.Score(data, subspace));
  }
}

// The `grid_batch` data shape: a 10-feature HiCS dataset, 300 points there.
Dataset MakeGridData(int n) {
  HicsGeneratorConfig config;
  config.num_points = n;
  config.subspace_dims = {2, 2, 3, 3};
  config.seed = 1;
  return GenerateHicsDataset(config).dataset;
}

// The subspace of the first `dim` features.
Subspace LeadingFeatures(int dim) {
  std::vector<FeatureId> features;
  for (int f = 0; f < dim; ++f) features.push_back(f);
  return Subspace(features);
}

// The shared kNN kernel of LOF, Fast ABOD and kNN-distance alone, in the
// `grid_batch` shape, k = 15 (LOF's default), one subspace of the first
// `state.range(0)` features.
void BM_Knn(benchmark::State& state) {
  const Dataset data = MakeGridData(300);
  const Subspace subspace = LeadingFeatures(static_cast<int>(state.range(0)));
  const ProfCounterSet prof = ProfCounterSet::ForKernel("kernel.kNN");
  state.SetLabel(PathLabel());
  for (auto _ : state) {
    CounterSpan prof_span(&prof);
    benchmark::DoNotOptimize(ComputeKnn(data, subspace, 15));
  }
}

// LOF, then Fast ABOD, each a fresh score of the same 7-d subspace through
// its own `ScoringService` over one `state.range(0)`-point HiCS dataset
// (the RefOut projection width of `grid_batch`). Arg 1 = 1: the services
// share an `EvictionManager`, so Fast ABOD takes LOF's neighbour lists
// (one sweep per iteration); 0: no manager, no share (two sweeps).
void BM_LofThenFastAbodShared(benchmark::State& state) {
  const Dataset data = MakeGridData(static_cast<int>(state.range(0)));
  const Subspace subspace = LeadingFeatures(7);
  const bool share = state.range(1) != 0;
  EvictionManager manager;
  ScoringServiceOptions options;
  if (share) options.cache.manager = &manager;
  const Lof lof(15);
  const FastAbod fast_abod(10);
  ScoringService lof_service(lof, data, options);
  ScoringService abod_service(fast_abod, data, options);
  state.SetLabel(std::string(share ? "scope, " : "no scope, ") +
                 PathLabel());
  for (auto _ : state) {
    lof_service.cache()->Clear();
    abod_service.cache()->Clear();
    benchmark::DoNotOptimize(lof_service.Score(subspace));
    benchmark::DoNotOptimize(abod_service.Score(subspace));
  }
}

// One iForest call as `grid_batch` makes it: the testbed's Quick detector
// (50 trees, 2 repetitions, psi = 256) on a 2-d subspace of the
// `grid_batch` data with `state.range(0)` points.
void BM_IForestQuick(benchmark::State& state) {
  const Dataset data = MakeGridData(static_cast<int>(state.range(0)));
  const Subspace subspace = LeadingFeatures(2);
  const std::unique_ptr<Detector> forest = MakeTestbedDetector(
      DetectorKind::kIsolationForest, TestbedProfile::Quick());
  const ProfCounterSet prof = ProfCounterSet::ForKernel("kernel.iForest");
  state.SetLabel(PathLabel());
  for (auto _ : state) {
    CounterSpan prof_span(&prof);
    benchmark::DoNotOptimize(forest->Score(data, subspace));
  }
}

// The Rng engine's speed: 4096 raw 64-bit draws (arg 0), `UniformInt`
// draws (arg 1) or `Uniform` draws (arg 2) per iteration, or one
// `SampleMask(256, taken)` over 300 rows (arg 3), the Isolation Forest
// subsample of `grid_batch`.
void BM_RngDraws(benchmark::State& state) {
  constexpr int kDraws = 4096;
  const int kind = static_cast<int>(state.range(0));
  static constexpr const char* kLabels[] = {"raw", "UniformInt", "Uniform",
                                            "SampleMask 256 of 300"};
  state.SetLabel(kLabels[kind]);
  Rng rng(42);
  if (kind == 3) {
    std::vector<unsigned char> taken(300);
    for (auto _ : state) {
      rng.SampleMask(256, taken);
      benchmark::DoNotOptimize(taken.data());
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 256);
    return;
  }
  for (auto _ : state) {
    for (int i = 0; i < kDraws; ++i) {
      if (kind == 0) {
        benchmark::DoNotOptimize(rng.engine()());
      } else if (kind == 1) {
        benchmark::DoNotOptimize(rng.UniformInt(0, 299));
      } else {
        benchmark::DoNotOptimize(rng.Uniform(-1.0, 2.0));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kDraws);
}

void BM_HicsContrast(benchmark::State& state) {
  const Dataset data = MakeData(static_cast<int>(state.range(0)), 10);
  Hics::Options options;
  options.mc_iterations = 100;  // Paper setting.
  const Hics hics(options);
  const Subspace subspace({1, 4, 7});
  const ProfCounterSet prof = ProfCounterSet::ForKernel("kernel.HiCS");
  for (auto _ : state) {
    CounterSpan prof_span(&prof);
    benchmark::DoNotOptimize(hics.Contrast(data, subspace));
  }
}

BENCHMARK(BM_Lof)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FastAbod)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IForestPaperSettings)
    ->Arg(250)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IForestSingleRepetition)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LofByDim)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Knn)->Arg(2)->Arg(3)->Arg(7)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IForestQuick)->Arg(300)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LofThenFastAbodShared)
    ->Args({250, 0})
    ->Args({250, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RngDraws)->Arg(0)->Arg(1)->Arg(2)->Arg(3);
BENCHMARK(BM_HicsContrast)->Arg(1000)->Unit(benchmark::kMillisecond);

// Passes every report to the display reporter that --benchmark_format and
// --benchmark_color select, and captures every measured run into a
// JsonTimingReport row (name, iterations, per-iteration real/cpu ms, and
// the label when the benchmark set one).
class CapturingReporter : public benchmark::BenchmarkReporter {
 public:
  explicit CapturingReporter(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void Finalize() override { display_->Finalize(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      JsonObject row;
      row.Add("name", run.benchmark_name())
          .Add("iterations", static_cast<std::uint64_t>(run.iterations))
          .Add("real_ms", run.real_accumulated_time / iters * 1e3)
          .Add("cpu_ms", run.cpu_accumulated_time / iters * 1e3);
      if (!run.report_label.empty()) row.Add("label", run.report_label);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.Add("items_per_second", static_cast<double>(items->second));
      }
      report.AddRow(row);
    }
  }

  bench::JsonTimingReport report;

 private:
  benchmark::BenchmarkReporter* display_;
};

}  // namespace

int main(int argc, char** argv) {
  // Pull out the repo-level flags before benchmark::Initialize sees (and
  // rejects) them as unrecognized.
  const std::string json_path = bench::FlagValue(argc, argv, "--json");
  const std::string profile_out =
      bench::FlagValue(argc, argv, "--profile-out");
  const int profile_hz = bench::IntFlag(argc, argv, "--profile-hz", 0);
  const int metrics_port = bench::IntFlag(argc, argv, "--metrics-port", -1);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const bool is_repo_flag = std::strcmp(argv[i], "--json") == 0 ||
                              std::strcmp(argv[i], "--profile-out") == 0 ||
                              std::strcmp(argv[i], "--profile-hz") == 0 ||
                              std::strcmp(argv[i], "--metrics-port") == 0;
    if (is_repo_flag) {
      if (i + 1 < argc) ++i;  // Skip the operand too.
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  RegisterProfProcessMetrics();
  MetricsHttpServer metrics_server;
  bench::StartMetricsEndpointIfRequested(metrics_server, metrics_port);
  bench::StartProfilerIfRequested(profile_out, profile_hz);
  CapturingReporter reporter(benchmark::CreateDefaultDisplayReporter());
  reporter.report.SetMeta(JsonObject().Add("bench", "detectors"));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  bench::WriteProfileIfRequested(profile_out);
  metrics_server.Stop();
  if (!json_path.empty()) reporter.report.WriteTo(json_path);
  return 0;
}
