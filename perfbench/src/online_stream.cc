// online_stream: the only workload that writes while it reads. One
// connection ingests a drifting stream open loop at a fixed rows/s into an
// OnlineDataset with the WAL on; three connections meanwhile send, also open
// loop at a fixed rate, kOnlineScore (LODA and LOF over 2-d subspaces) and
// kOnlineExplain (Beam over LODA). Every row carries the time the generator
// created it (its batch's due time), so an explanation's freshness is the
// time from the newest row of the epoch it was computed on to the moment it
// arrived.
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "core/testbed.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "net/explain_client.h"
#include "net/explain_server.h"
#include "obs/registry.h"
#include "online/online_dataset.h"
#include "stream/drifting_stream.h"
#include "subspace/enumeration.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subex;

constexpr int kServerThreads = 1;
constexpr int kQueryClients = 3;
// Queries per second; fixed, so that the ingest's share of `cpu_ms_per_op`
// does not depend on the host's speed. The single server thread spends
// about half its time on LOF re-index at each advance; at 4000/s queries
// piled up behind it and the generator fell behind on 69% of them.
constexpr double kQueriesPerSecond = 2000.0;
constexpr std::uint64_t kExplainEvery = 32;  // every 32nd query is an explain
constexpr double kRowsPerSecond = 1000.0;
constexpr std::size_t kBatchRows = 16;
constexpr std::size_t kWarmRows = 64;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kAdvanceEvery = 32;
constexpr std::uint64_t kSampleEvery = 13;
constexpr std::size_t kScoreChecksPerClient = 75;
constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kSetupRepeats = 60;  // about 15 ms each in a 20 s run

Loda::Options LodaOptions() {
  Loda::Options options;
  options.num_projections = 24;
  return options;
}

/// Everything set-up builds; destroyed in reverse order (server first).
struct Fixture {
  std::string wal_dir;
  Matrix rows;  // every row the phase can send, in order
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Lof> lof;
  std::unique_ptr<TimedDetector> timed_lof;
  std::unique_ptr<OnlineDataset> dataset;
  std::unique_ptr<PointExplainer> beam;
  std::unique_ptr<TimedExplainer> timed_beam;
  std::unique_ptr<ExplainServer> server;

  ~Fixture() {
    if (server != nullptr) server->Stop();
    server.reset();
    dataset.reset();
    std::error_code ignored;
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir, ignored);
  }
};

std::vector<double> RowValues(const Matrix& rows, std::size_t begin,
                              std::size_t count) {
  std::vector<double> values;
  values.reserve(count * rows.cols());
  for (std::size_t r = begin; r < begin + count; ++r) {
    for (std::size_t f = 0; f < rows.cols(); ++f) values.push_back(rows(r, f));
  }
  return values;
}

struct ScoreSample {
  std::string detector;
  std::size_t subspace = 0;
  std::uint64_t epoch = 0;
  std::vector<double> scores;
};

struct QueryWorker {
  explicit QueryWorker(std::uint64_t seed)
      : samples(kScoreChecksPerClient, seed) {}
  ExplainClient client;
  double rtt_sum_ms = 0.0;
  std::uint64_t rtt_count = 0;
  std::vector<double> freshness_ms;
  Reservoir<ScoreSample> samples;
  std::uint64_t explains = 0, stale = 0, lag_sum = 0;
  std::map<std::string, std::uint64_t> failures;
};

}  // namespace

PhaseResult RunOnlineStream(const RunConfig& config, double seconds,
                            bool traced) {
  PhaseResult out;
  out.reindex_detector = "LOF";
  const TestbedProfile profile = TestbedProfile::Quick();
  const std::size_t batches = static_cast<std::size_t>(
      seconds * kRowsPerSecond / static_cast<double>(kBatchRows)) + 2;
  const std::size_t total_rows = kWarmRows + batches * kBatchRows;

  // Set-up, repeated: stream generation, dataset + WAL, server, warm-up
  // ingest so every query has a scorable window.
  SetupTimes setup(kSetupRepeats);
  std::unique_ptr<Fixture> fx;
  for (int s = 0; setup.Again(); ++s) {
    fx.reset();
    const std::int64_t t0 = CpuNs();
    auto next = std::make_unique<Fixture>();
    DriftingStreamConfig stream_config;
    stream_config.chunk_size = 128;
    stream_config.outliers_per_chunk = 4;
    stream_config.drift_every_chunks = 2;
    stream_config.subspace_dims = {2, 3};
    stream_config.seed = config.seed;
    DriftingStreamGenerator stream(stream_config);
    next->rows = Matrix(total_rows, static_cast<std::size_t>(stream.num_features()));
    for (std::size_t filled = 0; filled < total_rows;) {
      const StreamChunk chunk = stream.Next();
      for (std::size_t r = 0; r < chunk.points.rows() && filled < total_rows;
           ++r, ++filled) {
        for (std::size_t f = 0; f < chunk.points.cols(); ++f) {
          next->rows(filled, f) = chunk.points(r, f);
        }
      }
    }
    const std::int64_t t1 = CpuNs();
    next->wal_dir = config.work_dir + "/wal-" + std::to_string(s);
    std::error_code ignored;
    std::filesystem::remove_all(next->wal_dir, ignored);
    std::filesystem::create_directories(next->wal_dir, ignored);
    OnlineDatasetOptions options;
    options.name = "stream";
    options.window_capacity = kWindow;
    options.advance_every = kAdvanceEvery;
    options.min_score_window = 32;
    options.drift.min_window = 64;
    options.wal_dir = next->wal_dir;
    next->dataset = std::make_unique<OnlineDataset>(options, next->rows.cols());
    next->dataset->AddLoda("LODA", LodaOptions());
    next->lof = std::make_unique<Lof>(10);
    next->timed_lof = std::make_unique<TimedDetector>(*next->lof);
    next->dataset->AddReindexDetector("LOF", *next->timed_lof);
    next->beam = MakeTestbedPointExplainer(PointExplainerKind::kBeam, profile);
    next->timed_beam = std::make_unique<TimedExplainer>(*next->beam);
    next->pool = std::make_unique<ThreadPool>(kServerThreads);
    next->server = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                                   next->pool.get());
    next->server->RegisterOnlineDataset(*next->dataset);
    next->server->RegisterExplainer("Beam", *next->timed_beam);
    std::string error;
    if (!next->server->Start(&error)) {
      out.Fail("server start failed: " + error);
      return out;
    }
    const std::int64_t t2 = CpuNs();
    ExplainClient warm;
    if (!warm.Connect("127.0.0.1", next->server->port(), &error) ||
        !warm.Ingest("stream", kWarmRows, RowValues(next->rows, 0, kWarmRows))
             .ok()) {
      out.Fail("warm-up ingest failed: " + error);
      return out;
    }
    const std::int64_t t3 = CpuNs();
    setup.total_s.push_back(MsBetween(t0, t3) * 1e-3);
    setup.data_s.push_back(MsBetween(t0, t1) * 1e-3);
    setup.warmup_s.push_back(MsBetween(t2, t3) * 1e-3);
    fx = std::move(next);
  }
  setup.AddTo(&out);
  ResetPeakRss();
  const std::uint16_t port = fx->server->port();
  const int num_features = static_cast<int>(fx->rows.cols());
  const std::vector<Subspace> subspaces = EnumerateSubspaces(num_features, 2);

  // Creation stamp of every row: warm-up rows when set-up finished, then
  // each batch's due time.
  std::vector<std::atomic<std::int64_t>> stamps(total_rows);
  const std::int64_t warm_stamp = NowNs();
  for (std::size_t r = 0; r < kWarmRows; ++r) stamps[r].store(warm_stamp);

  MetricsRegistry::Global().Reset();
  const ServerStatsSnapshot server_before = fx->server->stats();
  const OnlineDataset::StatsSnapshot online_before = fx->dataset->stats();

  ExplainClient ingest_client;
  std::vector<std::unique_ptr<QueryWorker>> queries;
  std::string error;
  bool connected = ingest_client.Connect("127.0.0.1", port, &error);
  for (int c = 0; c < kQueryClients && connected; ++c) {
    queries.push_back(std::make_unique<QueryWorker>(config.seed * 31 + c));
    connected = queries.back()->client.Connect("127.0.0.1", port, &error);
  }
  if (!connected) {
    out.Fail("connect failed: " + error);
    return out;
  }

  static const char* const kNetName = Intern("roundtrip");
  std::vector<double> ingest_ms, advance_ingest_ms;
  double rtt_sum_ms = 0.0;  // ingest round trips; query workers keep their own
  std::uint64_t rtt_count = 0;
  std::map<std::string, std::uint64_t> ingest_failures;
  std::atomic<std::uint64_t> rows_sent{kWarmRows};
  LoadResult ingest;
  LoadResult query;
  SliceStats stats;
  SliceStats fresh;  // explanation freshness, windowed the same way
  SpanRecorder::Get().SetRecording(traced);
  std::thread ingest_thread([&] {
    ingest = RunOpenLoop(
        /*pool=*/nullptr, kRowsPerSecond / static_cast<double>(kBatchRows),
        seconds,
        [&](int, std::uint64_t i, std::int64_t due) {
          const std::size_t begin = kWarmRows + i * kBatchRows;
          if (begin + kBatchRows > total_rows) {
            ++ingest_failures["ran out of generated rows"];
            return false;
          }
          for (std::size_t r = begin; r < begin + kBatchRows; ++r) {
            stamps[r].store(due, std::memory_order_relaxed);
          }
          // Published before the send: a query may see the new epoch
          // before this thread sees the reply.
          rows_sent.store(begin + kBatchRows, std::memory_order_release);
          const std::int64_t sent = NowNs();
          ExplainClient::IngestReply reply;
          {
            ScopedSpan net(Layer::kNet, kNetName);
            reply = ingest_client.Ingest(
                "stream", kBatchRows, RowValues(fx->rows, begin, kBatchRows));
          }
          const std::int64_t done = NowNs();
          rtt_sum_ms += MsBetween(sent, done);
          ++rtt_count;
          if (!reply.ok()) {
            ++ingest_failures["kIngest failed: " + reply.error];
            return false;
          }
          ingest_ms.push_back(MsBetween(due, done));
          if (reply.result.advances > 0) {
            advance_ingest_ms.push_back(MsBetween(due, done));
          }
          return true;
        });
  });
  // The open-loop queries run in slices (ingest runs throughout); each
  // figure is the median over slices of the slice's value.
  auto query_once = [&](int c, std::uint64_t i) {
    QueryWorker& worker = *queries[static_cast<std::size_t>(c)];
    // Query i of the phase is the same whichever connection sends it;
    // LODA and LOF alternate on scores.
    const std::uint64_t h = (config.seed + 1) * 0x9e3779b97f4a7c15ull ^
                            (i * 0xbf58476d1ce4e5b9ull);
    const std::size_t subspace = static_cast<std::size_t>(h % subspaces.size());
    const std::int64_t sent = NowNs();
    if (i % kExplainEvery == kExplainEvery - 1) {
      const int point = static_cast<int>((h >> 20) % kWarmRows);
      ExplainClient::OnlineExplainReply reply;
      {
        ScopedSpan net(Layer::kNet, kNetName);
        reply = worker.client.OnlineExplain("stream", "LODA", "Beam", point,
                                            /*target_dim=*/2);
      }
      const std::int64_t done = NowNs();
      worker.rtt_sum_ms += MsBetween(sent, done);
      ++worker.rtt_count;
      if (!reply.ok()) {
        ++worker.failures["kOnlineExplain failed: " + reply.error];
        return false;
      }
      const std::size_t newest = reply.computed_epoch * kAdvanceEvery;
      if (newest == 0 || newest > rows_sent.load(std::memory_order_acquire)) {
        ++worker.failures["kOnlineExplain epoch beyond the rows sent"];
        return false;
      }
      worker.freshness_ms.push_back(MsBetween(
          stamps[newest - 1].load(std::memory_order_relaxed), done));
      ++worker.explains;
      worker.lag_sum += reply.current_epoch - reply.computed_epoch;
      if (reply.stale()) ++worker.stale;
      return true;
    }
    const std::string detector = i % 2 == 0 ? "LODA" : "LOF";
    ExplainClient::OnlineScoreReply reply;
    {
      ScopedSpan net(Layer::kNet, kNetName);
      reply = worker.client.OnlineScore("stream", detector, subspaces[subspace]);
    }
    worker.rtt_sum_ms += MsBetween(sent, NowNs());
    ++worker.rtt_count;
    if (!reply.ok()) {
      ++worker.failures["kOnlineScore failed: " + reply.error];
      return false;
    }
    if (i % kSampleEvery == 0 && worker.samples.Offer()) {
      worker.samples.slot() =
          ScoreSample{detector, subspace, reply.epoch, std::move(reply.scores)};
    }
    return true;
  };
  const int slices = std::max(1, static_cast<int>(seconds / kSliceSeconds + 0.5));
  // The query sequence continues across slices.
  std::uint64_t query_index = 0;
  ThreadPool query_pool(kQueryClients);
  for (int k = 0; k < slices; ++k) {
    const std::int64_t cpu_start = CpuNs();
    LoadResult slice = RunOpenLoop(
        &query_pool, kQueriesPerSecond, seconds / slices,
        [&](int c, std::uint64_t i, std::int64_t) {
          return query_once(c, query_index + i);
        });
    query_index += slice.attempted;
    stats.AddLatencies(slice.latency_ms);
    stats.AddCpu(CpuNs() - cpu_start,
                 static_cast<double>(slice.attempted - slice.failed));
    std::vector<double> fresh_slice;
    for (auto& worker : queries) {
      fresh_slice.insert(fresh_slice.end(), worker->freshness_ms.begin(),
                         worker->freshness_ms.end());
      worker->freshness_ms.clear();
    }
    fresh.AddLatencies(fresh_slice);
    Append(&query, slice);
  }
  ingest_thread.join();
  SpanRecorder::Get().SetRecording(false);

  const OnlineDataset::StatsSnapshot online_after = fx->dataset->stats();
  const ServerStatsSnapshot server_after = fx->server->stats();
  std::vector<ScoreSample> samples;
  std::uint64_t explains = 0, stale = 0, lag_sum = 0;
  for (const auto& [what, n] : ingest_failures) {
    for (std::uint64_t k = 0; k < n; ++k) out.Fail("online_stream: " + what);
  }
  for (auto& worker : queries) {
    rtt_sum_ms += worker->rtt_sum_ms;
    rtt_count += worker->rtt_count;
    for (ScoreSample& s : worker->samples.items()) samples.push_back(std::move(s));
    explains += worker->explains;
    stale += worker->stale;
    lag_sum += worker->lag_sum;
    for (const auto& [what, n] : worker->failures) {
      for (std::uint64_t k = 0; k < n; ++k) out.Fail("online_stream: " + what);
    }
  }
  const double requests =
      static_cast<double>(ingest.attempted + query.attempted);
  out.attempted += ingest.attempted + query.attempted;
  out.ops = requests;
  out.latency_samples = stats.samples();
  stats.AddTo(&out);
  fresh.AddTo(&out, "freshness_p50_ms", "freshness_p99_ms");
  out.primary = out.metrics["cpu_ms_per_op"].value;
  LoadResult generated = ingest;
  Append(&generated, query);
  AddGeneratorMetrics(generated, &out);
  AddNetMetrics(rtt_count == 0 ? 0.0 : rtt_sum_ms / static_cast<double>(rtt_count),
                requests,
                server_after.busy_rejections - server_before.busy_rejections,
                &out);
  out.Set("online.ingest_p50_ms", Quantile(ingest_ms, 0.50), "ms");
  out.Set("online.ingest_p99_ms", Quantile(ingest_ms, 0.99), "ms");
  out.Set("online.advance_ingest_p50_ms", Quantile(advance_ingest_ms, 0.50),
          "ms");
  out.Set("online.advances",
          static_cast<double>(online_after.advances - online_before.advances),
          "count");
  out.Set("online.epoch_lag_mean",
          explains == 0 ? 0.0
                        : static_cast<double>(lag_sum) / static_cast<double>(explains),
          "epochs");
  out.Set("online.stale_ratio",
          explains == 0 ? 0.0
                        : static_cast<double>(stale) / static_cast<double>(explains),
          "ratio");
  out.Set("online.invalidated_entries",
          static_cast<double>(online_after.epochs_invalidated -
                              online_before.epochs_invalidated),
          "count");
  // The WAL is truncated at each checkpoint; every record since then is
  // one ingest batch.
  out.Set("online.wal_bytes_per_row",
          online_after.wal_records == 0
              ? 0.0
              : static_cast<double>(online_after.wal_bytes) /
                    static_cast<double>(online_after.wal_records * kBatchRows),
          "B");
  out.detect_computes += fx->timed_lof->computes();
  out.detect_recomputes += fx->timed_lof->recomputes();
  fx->server->Stop();

  // Output checks: sampled online scores against a batch recompute on that
  // epoch's window, rebuilt from the rows the generator sent.
  const Loda batch_loda(LodaOptions());
  const Lof batch_lof(10);
  for (const ScoreSample& s : samples) {
    const std::size_t end = s.epoch * kAdvanceEvery;
    const std::size_t begin = end > kWindow ? end - kWindow : 0;
    if (end == 0 || end > total_rows) {
      out.Check(false, "online_stream reply epoch outside the rows sent");
      continue;
    }
    Matrix window(end - begin, fx->rows.cols());
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t f = 0; f < fx->rows.cols(); ++f) {
        window(r - begin, f) = fx->rows(r, f);
      }
    }
    const Dataset data(std::move(window));
    const Detector& batch =
        s.detector == "LODA" ? static_cast<const Detector&>(batch_loda)
                             : static_cast<const Detector&>(batch_lof);
    out.Check(ScoreStandardized(batch, data, subspaces[s.subspace]) == s.scores,
              "online_stream kOnlineScore differs from the batch recompute");
  }
  return out;
}

}  // namespace perfbench
