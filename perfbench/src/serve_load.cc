// serve_warm and serve_cold: a loopback ExplainServer driven by an
// open-loop phase at a fixed rate below capacity and a closed-loop capacity
// phase, alternating in slices. The two workloads differ in data shape, key
// popularity and cache budget:
//
//   serve_warm  small dataset, kScore over its 2-d subspaces (uniform) and
//               kExplain (Beam over LOF, 2-d); the cache is warmed in
//               set-up, so every score is a hit and the detector is never
//               called.
//   serve_cold  wide dataset, LOF/FastABOD kScore over 3-d subspaces drawn
//               with Zipf popularity; the score caches share an
//               EvictionManager budget below the working set, so the head
//               hits and the tail misses and evicts. No kExplain: one needs
//               all 66 2-d LOF subspaces, mostly evicted, and the queueing
//               behind it decided p99 (see perfbench/README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "core/testbed.h"
#include "data/generators.h"
#include "mem/eviction_manager.h"
#include "net/explain_client.h"
#include "net/explain_server.h"
#include "obs/registry.h"
#include "subspace/enumeration.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subex;

constexpr std::uint64_t kSampleEvery = 37;
constexpr std::size_t kScoreChecksPerWorker = 100;
constexpr std::size_t kExplainChecksPerWorker = 4;
constexpr double kSliceSeconds = 1.0;

struct ServeSpec {
  const char* name;
  int num_points;
  std::vector<int> subspace_dims;
  std::vector<DetectorKind> detectors;
  int score_dim;           // dimensionality of the kScore subspaces
  double zipf_s;           // 0 = uniform popularity
  double explain_share;    // share of requests that are kExplain
  int explain_dim;
  double open_rate;        // open-loop requests per second
  double open_share;       // share of the phase spent in the open loop
  bool warm_cache;         // score every kScore key and the explain keys in set-up
  int server_threads;      // the server's ThreadPool size
  int client_threads;      // load threads = connections, used by both phases
  std::size_t manager_budget_bytes;  // 0 = the process-wide manager
  std::size_t setup_repeats;
};

const ServeSpec kWarm{"serve_warm", 400, {2, 2, 3, 3}, {DetectorKind::kLof},
                      2, 0.0, 0.10, 2, 6000.0, 0.6, true, 2, 4, 0, 12};
const ServeSpec kCold{"serve_cold",
                      250,
                      {3, 3, 3, 3},
                      {DetectorKind::kLof, DetectorKind::kFastAbod},
                      3,
                      1.1,
                      0.0,
                      2,
                      1200.0,
                      0.6,
                      false,
                      2,
                      4,
                      540u << 10,
                      2500};

/// One request: a kScore of key `key` (detector-major over the score
/// subspaces) or a kExplain of `point`.
struct Request {
  bool explain = false;
  std::size_t key = 0;
  int point = 0;
};

/// Everything set-up builds; members are destroyed in reverse order, so the
/// server stops before the services, caches and pool it uses go away.
struct Fixture {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<EvictionManager> manager;
  SyntheticDataset data;
  std::vector<std::unique_ptr<Detector>> raw;
  std::vector<std::unique_ptr<TimedDetector>> timed;
  std::vector<std::unique_ptr<ScoringService>> services;
  std::unique_ptr<PointExplainer> beam;
  std::unique_ptr<TimedExplainer> timed_beam;
  std::unique_ptr<ExplainServer> server;
};

class RequestSource {
 public:
  RequestSource(const ServeSpec& spec, std::size_t num_keys,
                const std::vector<int>& points)
      : spec_(spec), num_keys_(num_keys), points_(points) {
    if (spec.zipf_s > 0.0) {
      double total = 0.0;
      for (std::size_t r = 0; r < num_keys; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// `rank_to_key` permutes popularity ranks onto keys (seeded).
  void set_rank_to_key(std::vector<std::size_t> order) {
    rank_to_key_ = std::move(order);
  }

  Request Next(Rng& rng) const {
    Request r;
    r.explain = rng.Uniform() < spec_.explain_share;
    if (r.explain) {
      r.point = points_[rng.UniformIndex(points_.size())];
    } else if (cdf_.empty()) {
      r.key = rng.UniformIndex(num_keys_);
    } else {
      const double u = rng.Uniform();
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      r.key = rank_to_key_[std::min(rank, num_keys_ - 1)];
    }
    return r;
  }

 private:
  const ServeSpec& spec_;
  std::size_t num_keys_;
  const std::vector<int>& points_;
  std::vector<double> cdf_;
  std::vector<std::size_t> rank_to_key_;
};

/// A sampled reply, checked after the phase.
struct Sample {
  Request request;
  std::vector<double> scores;
  RankedSubspaces ranking;
};

/// Per-connection state of one load thread.
struct Worker {
  explicit Worker(std::uint64_t seed)
      : score_samples(kScoreChecksPerWorker, seed),
        explain_samples(kExplainChecksPerWorker, ~seed) {}
  ExplainClient client;
  double rtt_sum_ms = 0.0;
  std::uint64_t rtt_count = 0;
  Reservoir<Sample> score_samples;
  Reservoir<Sample> explain_samples;
  std::map<std::string, std::uint64_t> failures;
};

bool SameRanking(const RankedSubspaces& a, const RankedSubspaces& b) {
  return a.subspaces == b.subspaces && a.scores == b.scores;
}

const char* StatusName(ClientStatus status) {
  switch (status) {
    case ClientStatus::kOk: return "ok";
    case ClientStatus::kBusy: return "busy (gave up)";
    case ClientStatus::kServerError: return "server error";
    case ClientStatus::kTransportError: return "transport error";
    case ClientStatus::kDeadlineExceeded: return "deadline exceeded";
    case ClientStatus::kCircuitOpen: return "circuit open";
  }
  return "?";
}

PhaseResult RunServe(const ServeSpec& spec, const RunConfig& config,
                     double seconds, bool traced) {
  PhaseResult out;
  const TestbedProfile profile = TestbedProfile::Quick();
  std::vector<Subspace> subspaces;
  std::vector<Subspace> explain_subspaces;

  // Set-up, repeated; the last fixture serves the measured phase.
  SetupTimes setup(spec.setup_repeats);
  std::unique_ptr<Fixture> fx;
  for (int s = 0; setup.Again(); ++s) {
    fx.reset();
    const std::int64_t t0 = CpuNs();
    auto next = std::make_unique<Fixture>();
    HicsGeneratorConfig data_config;
    data_config.num_points = spec.num_points;
    data_config.subspace_dims = spec.subspace_dims;
    data_config.seed = config.seed;
    next->data = GenerateHicsDataset(data_config);
    const std::int64_t t1 = CpuNs();
    const int d = static_cast<int>(next->data.dataset.num_features());
    subspaces = EnumerateSubspaces(d, spec.score_dim);
    explain_subspaces = EnumerateSubspaces(d, spec.explain_dim);
    next->pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(spec.server_threads));
    ScoringServiceOptions service_options = MakeServiceOptions(profile);
    if (spec.manager_budget_bytes > 0) {
      EvictionManager::Options manager_options;
      manager_options.budget_bytes = spec.manager_budget_bytes;
      next->manager = std::make_unique<EvictionManager>(manager_options);
      service_options.cache.manager = next->manager.get();
      service_options.cache.max_bytes =
          spec.manager_budget_bytes / spec.detectors.size();
      service_options.cache.num_shards = 4;
    }
    for (DetectorKind kind : spec.detectors) {
      next->raw.push_back(MakeTestbedDetector(kind, profile));
      next->timed.push_back(std::make_unique<TimedDetector>(*next->raw.back()));
      next->services.push_back(std::make_unique<ScoringService>(
          *next->timed.back(), next->data.dataset, service_options,
          next->pool.get()));
    }
    next->beam = MakeTestbedPointExplainer(PointExplainerKind::kBeam, profile);
    next->timed_beam = std::make_unique<TimedExplainer>(*next->beam);
    ExplainServerOptions server_options;
    next->server =
        std::make_unique<ExplainServer>(server_options, next->pool.get());
    for (auto& service : next->services) next->server->RegisterService(*service);
    next->server->RegisterExplainer("Beam", *next->timed_beam);
    std::string error;
    if (!next->server->Start(&error)) {
      out.Fail("server start failed: " + error);
      return out;
    }
    const std::int64_t t2 = CpuNs();
    if (spec.warm_cache) {
      for (auto& service : next->services) service->ScoreMany(subspaces);
      next->services.front()->ScoreMany(explain_subspaces);
    }
    const std::int64_t t3 = CpuNs();
    setup.total_s.push_back(MsBetween(t0, t3) * 1e-3);
    setup.data_s.push_back(MsBetween(t0, t1) * 1e-3);
    setup.warmup_s.push_back(MsBetween(t2, t3) * 1e-3);
    fx = std::move(next);
  }
  setup.AddTo(&out);
  ResetPeakRss();

  const Dataset& data = fx->data.dataset;
  std::vector<int> points = data.outlier_indices();
  if (points.empty()) points.push_back(0);
  const std::size_t num_keys = subspaces.size() * spec.detectors.size();
  RequestSource source(spec, num_keys, points);
  {
    // Popularity ranks take the detectors in turn (rank r -> detector
    // r mod D) over a seeded order of subspaces, so every popularity tier
    // mixes detectors alike whatever the seed.
    std::vector<std::size_t> subspace_order(subspaces.size());
    for (std::size_t k = 0; k < subspace_order.size(); ++k) subspace_order[k] = k;
    Rng rng(config.seed ^ 0x9e3779b97f4a7c15ull);
    rng.Shuffle(subspace_order);
    const std::size_t detectors = spec.detectors.size();
    std::vector<std::size_t> order(num_keys);
    for (std::size_t rank = 0; rank < num_keys; ++rank) {
      order[rank] = (rank % detectors) * subspaces.size() +
                    subspace_order[rank / detectors];
    }
    source.set_rank_to_key(std::move(order));
  }
  std::vector<std::string> detector_names;
  for (auto& service : fx->services) {
    detector_names.push_back(service->detector_name());
  }

  // The load threads, each with its own connection, serve both phases.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int w = 0; w < spec.client_threads; ++w) {
    workers.push_back(std::make_unique<Worker>(config.seed * 31 + w));
    std::string error;
    if (!workers.back()->client.Connect("127.0.0.1", fx->server->port(),
                                        &error)) {
      out.Fail("connect failed: " + error);
      return out;
    }
  }
  ThreadPool load_pool(static_cast<std::size_t>(spec.client_threads));
  static const char* const kNetName = Intern("roundtrip");
  // Sends `r`, the `i`-th request of worker `w`'s current loop. Every
  // explain and every kSampleEvery-th score reply is offered to the
  // worker's reservoirs for the output checks.
  auto issue = [&](int w, const Request& r, std::uint64_t i) {
    Worker& worker = *workers[static_cast<std::size_t>(w)];
    const bool sample = r.explain || i % kSampleEvery == 0;
    ClientStatus status = ClientStatus::kOk;
    Sample kept;
    kept.request = r;
    const std::int64_t sent = NowNs();
    {
      ScopedSpan net(Layer::kNet, kNetName);
      if (r.explain) {
        ExplainClient::ExplainReply reply = worker.client.Explain(
            detector_names.front(), "Beam", r.point, spec.explain_dim);
        status = reply.status;
        if (sample) kept.ranking = std::move(reply.ranking);
      } else {
        const Subspace& subspace = subspaces[r.key % subspaces.size()];
        ExplainClient::ScoreReply reply = worker.client.Score(
            detector_names[r.key / subspaces.size()], subspace);
        status = reply.status;
        if (sample) kept.scores = std::move(reply.scores);
      }
    }
    const std::int64_t done = NowNs();
    worker.rtt_sum_ms += MsBetween(sent, done);
    ++worker.rtt_count;
    if (status != ClientStatus::kOk) {
      ++worker.failures[std::string(r.explain ? "kExplain " : "kScore ") +
                        StatusName(status)];
      return false;
    }
    Reservoir<Sample>& kept_samples =
        r.explain ? worker.explain_samples : worker.score_samples;
    if (sample && kept_samples.Offer()) kept_samples.slot() = std::move(kept);
    return true;
  };

  for (auto& service : fx->services) service->ResetStats();
  MetricsRegistry::Global().Reset();
  const ServerStatsSnapshot server_before = fx->server->stats();
  const EvictionManager& manager =
      fx->manager != nullptr ? *fx->manager : EvictionManager::Global();
  const std::uint64_t reclaims_before = manager.snapshot().reclaim_passes;

  // The open-loop and closed-loop phases alternate in slices, so a burst
  // of host noise lands on both alike (see SliceStats).
  std::vector<std::unique_ptr<Rng>> client_rngs;
  for (int c = 0; c < spec.client_threads; ++c) {
    client_rngs.push_back(std::make_unique<Rng>(
        config.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(c) + 1));
  }
  const int slices = std::max(1, static_cast<int>(seconds / kSliceSeconds + 0.5));
  LoadResult open, closed;
  SliceStats open_stats, closed_stats;  // latency / capacity figures
  std::uint64_t open_index = 0;
  SpanRecorder::Get().SetRecording(traced);
  for (int k = 0; k < slices; ++k) {
    LoadResult o = RunOpenLoop(
        &load_pool, spec.open_rate, seconds * spec.open_share / slices,
        [&](int w, std::uint64_t i, std::int64_t) {
          // Request i of the whole phase comes from its own seeded stream,
          // whichever worker sends it.
          Rng rng(config.seed * 0x100000001b3ull + open_index + i);
          return issue(w, source.Next(rng), i);
        });
    open_index += o.attempted;
    open_stats.AddLatencies(o.latency_ms);
    Append(&open, o);
    const std::int64_t cpu_start = CpuNs();
    LoadResult c = RunClosedLoop(
        load_pool, seconds * (1.0 - spec.open_share) / slices,
        [&](int client, std::uint64_t i) {
          const Request r =
              source.Next(*client_rngs[static_cast<std::size_t>(client)]);
          return issue(client, r, i);
        });
    closed_stats.AddRate(c);
    closed_stats.AddCpu(CpuNs() - cpu_start,
                        static_cast<double>(c.attempted - c.failed));
    Append(&closed, c);
  }
  SpanRecorder::Get().SetRecording(false);
  double rtt_sum_ms = 0.0;
  std::uint64_t rtt_count = 0;
  std::vector<Sample> samples;
  for (auto& worker : workers) {
    rtt_sum_ms += worker->rtt_sum_ms;
    rtt_count += worker->rtt_count;
    for (Reservoir<Sample>* kept :
         {&worker->score_samples, &worker->explain_samples}) {
      for (Sample& s : kept->items()) samples.push_back(std::move(s));
    }
    for (const auto& [what, n] : worker->failures) {
      for (std::uint64_t k = 0; k < n; ++k) out.Fail(spec.name + (": " + what));
    }
  }
  workers.clear();
  AddGeneratorMetrics(open, &out);

  // Layer counters, read before the fixture goes away.
  std::uint64_t lookups = 0, hits = 0, joins = 0, evictions = 0;
  for (auto& service : fx->services) {
    const ServiceStatsSnapshot s = service->stats();
    lookups += s.Requests();
    hits += s.hits;
    joins += s.dedup_joins;
    evictions += s.evictions;
  }
  for (auto& t : fx->timed) {
    out.detect_computes += t->computes();
    out.detect_recomputes += t->recomputes();
  }
  const EvictionManagerSnapshot mem = manager.snapshot();
  const ServerStatsSnapshot server_after = fx->server->stats();
  out.attempted += open.attempted + closed.attempted;
  const double requests = static_cast<double>(open.attempted + closed.attempted);
  out.ops = requests;
  out.latency_samples = open_stats.samples();
  open_stats.AddTo(&out);
  closed_stats.AddTo(&out);
  // The data are static, so the newest input an answer reflects is the
  // request itself: freshness is the open-loop latency from the due time.
  out.Set("freshness_p50_ms", out.metrics["p50_ms"].value, "ms");
  out.Set("freshness_p99_ms", out.metrics["p99_ms"].value, "ms");
  out.primary = out.metrics["cpu_ms_per_op"].value;

  const double per_op = requests > 0.0 ? 1.0 / requests : 0.0;
  out.Set("serve.lookups", static_cast<double>(lookups) * per_op, "1/op");
  out.Set("serve.hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(lookups),
          "ratio");
  out.Set("serve.dedup_joins", static_cast<double>(joins) * per_op, "1/op");
  out.Set("mem.evictions", static_cast<double>(evictions) * per_op, "1/op");
  out.Set("mem.reclaim_passes",
          static_cast<double>(mem.reclaim_passes - reclaims_before) * per_op,
          "1/op");
  out.Set("mem.used_bytes", static_cast<double>(mem.used_bytes), "B");
  AddNetMetrics(rtt_count == 0 ? 0.0 : rtt_sum_ms / static_cast<double>(rtt_count),
                requests,
                server_after.busy_rejections - server_before.busy_rejections,
                &out);

  fx->server->Stop();

  // Output checks: sampled wire replies against the direct computation.
  std::map<std::size_t, std::vector<double>> expected_scores;
  for (const Sample& s : samples) {
    if (s.request.explain) {
      const RankedSubspaces direct = fx->beam->Explain(
          data, *fx->raw.front(), s.request.point, spec.explain_dim);
      out.Check(SameRanking(direct, s.ranking),
                std::string(spec.name) + " kExplain reply differs from Beam::Explain");
    } else {
      auto it = expected_scores.find(s.request.key);
      if (it == expected_scores.end()) {
        it = expected_scores
                 .emplace(s.request.key,
                          ScoreStandardized(
                              *fx->raw[s.request.key / subspaces.size()], data,
                              subspaces[s.request.key % subspaces.size()]))
                 .first;
      }
      out.Check(it->second == s.scores,
                std::string(spec.name) +
                    " kScore reply differs from ScoreStandardized");
    }
  }
  return out;
}

}  // namespace

PhaseResult RunServeWarm(const RunConfig& config, double seconds, bool traced) {
  return RunServe(kWarm, config, seconds, traced);
}

PhaseResult RunServeCold(const RunConfig& config, double seconds, bool traced) {
  return RunServe(kCold, config, seconds, traced);
}

}  // namespace perfbench
