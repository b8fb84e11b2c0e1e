// grid_batch: the paper's own workload, in process. Every pass runs the
// full explainer x detector x dimensionality grid (Beam, RefOut, LookOut,
// HiCS x LOF, FastABOD, iForest x 2d, 3d) over one synthetic HiCS dataset
// with planted ground truth, through fresh ScoringServices, and computes
// every cell's MAP and recall. Passes repeat until the phase's time is up.
#include <map>
#include <memory>
#include <mutex>

#include "core/pipeline.h"
#include "core/testbed.h"
#include "data/generators.h"
#include "mem/eviction_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subex;

constexpr int kPoolThreads = 4;
constexpr std::size_t kSetupRepeats = 3000;  // about 0.3 ms each

struct Cell {
  int explainer = 0;  // index into the four explainers (0, 1 point; 2, 3 summary)
  DetectorKind detector = DetectorKind::kLof;
  int dim = 2;
  bool point() const { return explainer < 2; }
};

SyntheticDataset MakeGridData(std::uint64_t seed) {
  HicsGeneratorConfig config;
  config.num_points = 300;
  config.subspace_dims = {2, 2, 3, 3};
  config.outliers_per_subspace = 5;
  config.seed = seed;
  return GenerateHicsDataset(config);
}

bool SameRanking(const RankedSubspaces& a, const RankedSubspaces& b) {
  return a.subspaces == b.subspaces && a.scores == b.scores;
}

/// MAP / recall / points of every cell from the first pass of this process,
/// keyed by (seed, cell): later passes and the traced phase must match.
struct CellOutcome {
  double map = 0.0;
  double recall = 0.0;
  int points = 0;
};
std::map<std::pair<std::uint64_t, std::size_t>, CellOutcome>& References() {
  static std::map<std::pair<std::uint64_t, std::size_t>, CellOutcome> refs;
  return refs;
}

}  // namespace

PhaseResult RunGridBatch(const RunConfig& config, double seconds,
                         bool traced) {
  PhaseResult out;
  out.pool_threads = kPoolThreads;

  // Set-up is data generation only.
  SetupTimes setup(kSetupRepeats);
  SyntheticDataset data;
  while (setup.Again()) {
    const std::int64_t t0 = CpuNs();
    data = MakeGridData(config.seed);
    const double dt = MsBetween(t0, CpuNs()) * 1e-3;
    setup.total_s.push_back(dt);
    setup.data_s.push_back(dt);
    setup.warmup_s.push_back(0.0);
  }
  setup.AddTo(&out);
  ResetPeakRss();
  const Dataset& dataset = data.dataset;
  const GroundTruth& gt = data.ground_truth;

  const TestbedProfile profile = TestbedProfile::Quick();
  ThreadPool pool(kPoolThreads);
  std::vector<std::unique_ptr<Detector>> raw;
  for (DetectorKind kind : AllDetectorKinds()) {
    raw.push_back(MakeTestbedDetector(kind, profile));
  }
  const auto beam = MakeTestbedPointExplainer(PointExplainerKind::kBeam, profile);
  const auto refout =
      MakeTestbedPointExplainer(PointExplainerKind::kRefOut, profile);
  const auto lookout = MakeTestbedSummarizer(SummarizerKind::kLookOut, profile);
  const auto hics = MakeTestbedSummarizer(SummarizerKind::kHics, profile);
  TimedExplainer timed_point[2] = {TimedExplainer(*beam),
                                   TimedExplainer(*refout)};
  TimedSummarizer timed_summary[2] = {TimedSummarizer(*lookout),
                                      TimedSummarizer(*hics)};
  const PointExplainer* plain_point[2] = {beam.get(), refout.get()};
  const Summarizer* plain_summary[2] = {lookout.get(), hics.get()};

  std::vector<Cell> cells;
  for (int e = 0; e < 4; ++e) {
    for (DetectorKind kind : AllDetectorKinds()) {
      for (int dim : {2, 3}) cells.push_back(Cell{e, kind, dim});
    }
  }
  PipelineOptions options;
  options.max_points = profile.max_points_per_cell;

  SpanRecorder& recorder = SpanRecorder::Get();
  const std::uint64_t reclaims_before =
      EvictionManager::Global().snapshot().reclaim_passes;
  std::vector<double> pass_s, pass_cpu_ms, pass_rate, cell_p50, cell_p99,
      fresh_p50, fresh_p99;
  std::size_t cells_run = 0;
  std::uint64_t lookups = 0, hits = 0, joins = 0, evictions = 0;
  double used_bytes = 0.0;
  double measured_s = 0.0;
  int passes = 0;
  for (; passes == 0 || measured_s < seconds; ++passes) {
    const std::size_t checked =
        static_cast<std::size_t>((config.seed + static_cast<std::uint64_t>(passes)) %
                                 cells.size());
    const Cell& check_cell = cells[checked];
    std::mutex capture_mutex;
    std::map<int, RankedSubspaces> cached;
    const RankingSink capture = [&](int point, const RankedSubspaces& r) {
      std::lock_guard<std::mutex> lock(capture_mutex);
      cached[point] = r;
    };
    std::vector<PipelineResult> results(cells.size());
    std::vector<double> cell_ms, fresh_ms;

    recorder.SetRecording(traced);
    const std::int64_t pass_start = NowNs();
    const std::int64_t pass_cpu_start = CpuNs();
    {
      static const char* const kPassName = Intern("grid.pass");
      static const char* const kCoreName = Intern("pipeline");
      ScopedSpan root(Layer::kRoot, kPassName, /*new_op=*/true);
      std::vector<std::unique_ptr<TimedDetector>> timed;
      std::vector<std::unique_ptr<ScoringService>> services;
      for (const std::unique_ptr<Detector>& d : raw) {
        timed.push_back(std::make_unique<TimedDetector>(*d));
        services.push_back(std::make_unique<ScoringService>(
            *timed.back(), dataset, MakeServiceOptions(profile), &pool));
      }
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const Cell& cell = cells[c];
        ScoringService& service = *services[static_cast<std::size_t>(cell.detector)];
        const std::int64_t cell_start = NowNs();
        {
          ScopedSpan core(Layer::kCore, kCoreName);
          recorder.cross_thread_parent.store(core.id());
          if (cell.point()) {
            TimedExplainer& explainer = timed_point[cell.explainer];
            if (c == checked) explainer.set_sink(capture);
            results[c] = RunPointExplanationPipeline(service, gt, explainer,
                                                     cell.dim, options);
            explainer.set_sink(nullptr);
          } else {
            TimedSummarizer& summarizer = timed_summary[cell.explainer - 2];
            if (c == checked) summarizer.set_sink(capture);
            results[c] =
                RunSummarizationPipeline(service, gt, summarizer, cell.dim);
            summarizer.set_sink(nullptr);
          }
          recorder.cross_thread_parent.store(0);
        }
        const std::int64_t now = NowNs();
        cell_ms.push_back(MsBetween(cell_start, now));
        fresh_ms.push_back(MsBetween(pass_start, now));
      }
      for (std::size_t k = 0; k < services.size(); ++k) {
        const ServiceStatsSnapshot s = services[k]->stats();
        lookups += s.Requests();
        hits += s.hits;
        joins += s.dedup_joins;
        evictions += s.evictions;
        out.detect_computes += timed[k]->computes();
        out.detect_recomputes += timed[k]->recomputes();
      }
      used_bytes = static_cast<double>(EvictionManager::Global().used_bytes());
    }
    const double pass_time = MsBetween(pass_start, NowNs()) * 1e-3;
    pass_cpu_ms.push_back(MsBetween(pass_cpu_start, CpuNs()));
    recorder.SetRecording(false);
    pass_s.push_back(pass_time);
    pass_rate.push_back(static_cast<double>(cells.size()) / pass_time);
    cell_p50.push_back(Quantile(cell_ms, 0.50));
    cell_p99.push_back(Quantile(cell_ms, 0.99));
    fresh_p50.push_back(Quantile(fresh_ms, 0.50));
    fresh_p99.push_back(Quantile(fresh_ms, 0.99));
    cells_run += cells.size();
    measured_s += pass_time;
    out.attempted += cells.size();

    // Output checks, outside the timed pass.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const PipelineResult& r = results[c];
      out.Check(r.map >= 0.0 && r.map <= 1.0 && r.mean_recall >= 0.0 &&
                    r.mean_recall <= 1.0,
                "grid MAP/recall outside [0, 1]");
      const CellOutcome outcome{r.map, r.mean_recall, r.num_points};
      const auto [it, inserted] =
          References().emplace(std::make_pair(config.seed, c), outcome);
      if (!inserted) {
        out.Check(it->second.map == outcome.map &&
                      it->second.recall == outcome.recall &&
                      it->second.points == outcome.points,
                  "grid MAP/recall differ between passes");
      }
    }
    // The sampled cell again through the direct, uncached path: one point
    // for a point explainer (the pipeline's subsample is a prefix of the
    // same shuffle), the whole summary for a summarizer.
    const Detector& direct_detector =
        *raw[static_cast<std::size_t>(check_cell.detector)];
    std::map<int, RankedSubspaces> direct;
    const RankingSink capture_direct = [&](int point, const RankedSubspaces& r) {
      direct[point] = r;
    };
    if (check_cell.point()) {
      TimedExplainer explainer(*plain_point[check_cell.explainer]);
      explainer.set_sink(capture_direct);
      PipelineOptions one = options;
      one.max_points = 1;
      RunPointExplanationPipeline(dataset, gt, direct_detector, explainer,
                                  check_cell.dim, one);
    } else {
      TimedSummarizer summarizer(*plain_summary[check_cell.explainer - 2]);
      summarizer.set_sink(capture_direct);
      const PipelineResult r = RunSummarizationPipeline(
          dataset, gt, direct_detector, summarizer, check_cell.dim);
      out.Check(r.map == results[checked].map &&
                    r.mean_recall == results[checked].mean_recall,
                "grid direct-path MAP/recall differ from the served path");
    }
    bool same = !direct.empty();
    for (const auto& [point, ranking] : direct) {
      const auto it = cached.find(point);
      same = same && it != cached.end() && SameRanking(it->second, ranking);
    }
    out.Check(same, "grid ranked subspaces differ from the direct path");
  }

  // Each figure is taken per pass; the run reports its median over passes.
  out.Set("cpu_ms_per_op", Median(pass_cpu_ms), "ms");
  out.Set("batch_s", Median(pass_s), "s");
  out.Set("p50_ms", Median(cell_p50), "ms");
  out.Set("p99_ms", Median(cell_p99), "ms");
  out.Set("capacity_rps", Median(pass_rate), "1/s");
  out.Set("freshness_p50_ms", Median(fresh_p50), "ms");
  out.Set("freshness_p99_ms", Median(fresh_p99), "ms");
  out.primary = Median(pass_cpu_ms);
  out.ops = static_cast<double>(passes);
  out.latency_samples = cells_run;

  const double per_pass = 1.0 / static_cast<double>(passes);
  out.Set("serve.lookups", static_cast<double>(lookups) * per_pass, "1/op");
  out.Set("serve.hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(lookups),
          "ratio");
  out.Set("serve.dedup_joins", static_cast<double>(joins) * per_pass, "1/op");
  out.Set("mem.evictions", static_cast<double>(evictions) * per_pass, "1/op");
  out.Set("mem.reclaim_passes",
          static_cast<double>(EvictionManager::Global().snapshot().reclaim_passes -
                              reclaims_before) *
              per_pass,
          "1/op");
  out.Set("mem.used_bytes", used_bytes, "B");
  return out;
}

}  // namespace perfbench
