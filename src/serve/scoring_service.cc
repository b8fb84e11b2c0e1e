#include "serve/scoring_service.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "obs/event_log.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace subex {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// A private cache's display name carries the detector, so eviction-manager
/// snapshots distinguish the per-service caches ("score_cache.LOF", ...).
ScoreCacheOptions NamedCacheOptions(ScoreCacheOptions options,
                                    const std::string& detector_name) {
  options.name += "." + detector_name;
  return options;
}

}  // namespace

ScoringService::ScoringService(const Detector& detector, const Dataset& data,
                               const ScoringServiceOptions& options,
                               ThreadPool* pool)
    : detector_(detector),
      data_(data),
      detector_name_(detector.name()),
      stats_(std::make_shared<ServiceStats>()),
      cache_(options.enable_cache
                 ? std::make_shared<ScoreCache>(
                       NamedCacheOptions(options.cache, detector_name_),
                       stats_.get())
                 : nullptr),
      pool_(pool),
      score_histogram_(&MetricsRegistry::Global().GetHistogram("detect.score")),
      detector_histogram_(&MetricsRegistry::Global().GetHistogram(
          "detect.score." + detector_name_)),
      prof_counters_(ProfCounterSet::ForKernel("detect." + detector_name_)) {
  JoinKnnShare();
}

ScoringService::ScoringService(const Detector& detector, const Dataset& data,
                               std::shared_ptr<ScoreCache> cache,
                               ThreadPool* pool)
    : detector_(detector),
      data_(data),
      detector_name_(detector.name()),
      stats_(std::make_shared<ServiceStats>()),
      cache_(std::move(cache)),
      pool_(pool),
      score_histogram_(&MetricsRegistry::Global().GetHistogram("detect.score")),
      detector_histogram_(&MetricsRegistry::Global().GetHistogram(
          "detect.score." + detector_name_)),
      prof_counters_(ProfCounterSet::ForKernel("detect." + detector_name_)) {
  JoinKnnShare();
}

void ScoringService::JoinKnnShare() {
  KnnSweepCounter();
  KnnSharedCounter();
  if (cache_ == nullptr || cache_->options().manager == nullptr) return;
  knn_share_ = std::make_unique<KnnShareMember>(
      data_, *cache_->options().manager, cache_->options().max_bytes);
}

ScoreVectorPtr ScoringService::Hit(const ScoreKey& key) {
  if (cache_ == nullptr) return nullptr;
  ScoreVectorPtr v = cache_->Get(key);
  if (v != nullptr) stats_->RecordHit();
  return v;
}

ScoreVectorPtr ScoringService::Cached(const Subspace& subspace) {
  return Hit(ScoreKey{detector_name_, subspace});
}

ScoreVectorPtr ScoringService::Score(const Subspace& subspace) {
  ScoreKey key{detector_name_, subspace};
  if (ScoreVectorPtr v = Hit(key)) return v;

  std::promise<ScoreVectorPtr> promise;
  std::shared_future<ScoreVectorPtr> future;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    // Re-probe under the lock: a leader may have published to the cache and
    // left the in-flight table between our miss above and here.
    if (ScoreVectorPtr v = Hit(key)) return v;
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      inflight_.emplace(key, future);
      leader = true;
    }
  }

  if (!leader) {
    stats_->RecordDedupJoin();
    // A stampede: this caller blocks on another thread's in-flight compute.
    SUBEX_EVENT(EventSeverity::kDebug, "cache.single_flight_join",
                JsonObject()
                    .Add("detector", detector_name_)
                    .Add("subspace_dims",
                         static_cast<std::uint64_t>(key.subspace.size()))
                    .Build());
    return future.get();
  }
  return ComputeAndPublish(key, promise);
}

ScoreVectorPtr ScoringService::ComputeAndPublish(
    const ScoreKey& key, std::promise<ScoreVectorPtr>& promise) {
  const auto start = Clock::now();
  ScoreVectorPtr value;
  try {
    // Wall clock via the histograms below; cycles/IPC/misses via the
    // counter span — together the per-kernel evidence the SIMD roadmap
    // item is judged against.
    CounterSpan prof_span(&prof_counters_);
    KnnShareBinding knn_share(knn_share_.get());
    value = std::make_shared<const std::vector<double>>(
        ScoreStandardized(detector_, data_, key.subspace));
    knn_share.Completed();
  } catch (...) {
    // Unblock joiners with the same failure, then surface it here.
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  const std::uint64_t compute_ns = ElapsedNs(start);
  stats_->RecordComputeNs(compute_ns);
  score_histogram_->Record(compute_ns);
  detector_histogram_->Record(compute_ns);
  // Attach the compute interval to the calling request's trace (the server
  // installs it around the request handler); orphan span otherwise.
  RecordCompletedSpan("detect.score", start, compute_ns);
  stats_->RecordMiss();
  // Publish to the cache *before* retiring the in-flight entry so a request
  // arriving in between always finds one of the two — never a gap that
  // would trigger a duplicate computation.
  if (cache_ != nullptr) cache_->Put(key, value);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  promise.set_value(value);
  return value;
}

std::vector<ScoreVectorPtr> ScoringService::ScoreMany(
    std::span<const Subspace> subspaces) {
  std::vector<ScoreVectorPtr> results(subspaces.size());
  if (subspaces.empty()) return results;

  // Group duplicate subspaces: each unique key is requested once and fanned
  // back out, so batch-internal duplicates count as dedup joins.
  std::unordered_map<Subspace, std::vector<std::size_t>, SubspaceHash> groups;
  groups.reserve(subspaces.size());
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    auto& indices = groups[subspaces[i]];
    if (!indices.empty()) stats_->RecordDedupJoin();
    indices.push_back(i);
  }
  std::vector<const std::vector<std::size_t>*> fan_out;
  std::vector<const Subspace*> unique;
  unique.reserve(groups.size());
  fan_out.reserve(groups.size());
  for (const auto& [subspace, indices] : groups) {
    unique.push_back(&subspace);
    fan_out.push_back(&indices);
  }

  auto score_one = [&](std::size_t u) {
    ScoreVectorPtr v = Score(*unique[u]);
    for (std::size_t i : *fan_out[u]) results[i] = v;
  };
  if (pool_ != nullptr && pool_->num_threads() > 1 && unique.size() > 1) {
    pool_->ParallelFor(unique.size(), score_one);
  } else {
    for (std::size_t u = 0; u < unique.size(); ++u) score_one(u);
  }
  return results;
}

std::vector<double> CachingDetector::Score(const Dataset& data,
                                           const Subspace& subspace) const {
  SUBEX_CHECK_MSG(
      &data == &service_.data(),
      "CachingDetector queried with a dataset other than its service's");
  return *service_.Score(subspace);
}

}  // namespace subex
