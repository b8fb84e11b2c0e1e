#ifndef SUBEX_SERVE_SCORING_SERVICE_H_
#define SUBEX_SERVE_SCORING_SERVICE_H_

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "detect/knn_share.h"
#include "obs/metrics.h"
#include "prof/perf_counters.h"
#include "serve/score_cache.h"
#include "serve/service_stats.h"
#include "subspace/subspace.h"

namespace subex {

/// Knobs of a `ScoringService`.
struct ScoringServiceOptions {
  /// False disables memoization: every unique request computes, but
  /// single-flight deduplication of concurrent identical requests stays on.
  bool enable_cache = true;
  /// Cache sizing (ignored when an external cache is supplied).
  ScoreCacheOptions cache;
};

/// Concurrent, memoizing scoring backend: owns one detector + one dataset
/// and serves the **standardized** score vector of any subspace, the exact
/// bytes `ScoreStandardized(detector, data, subspace)` would produce.
///
/// Four mechanisms make repeated/overlapping scoring cheap:
///  * a sharded LRU `ScoreCache` keyed by `(detector name, subspace)`
///    remembers recently served vectors within an entry/byte budget;
///  * **single-flight deduplication**: concurrent requests for the same
///    uncached subspace block on one in-flight computation (a
///    `shared_future` per key) instead of recomputing it N times;
///  * `ScoreMany` fans the *unique uncached* keys of a batch out over a
///    `ThreadPool` with dynamic balancing;
///  * services whose caches share an `EvictionManager` share the kNN
///    lists of their dataset (`KnnShareMember`), so LOF and Fast ABOD run
///    each subspace's neighbour search once.
///
/// All methods are safe to call concurrently. Determinism: detectors are
/// pure (stochastic ones seed from the subspace identity), so a cached
/// vector is bitwise identical to a fresh computation. The referenced
/// detector, dataset, cache and pool must outlive the service.
class ScoringService {
 public:
  /// Service with its own private cache sized by `options.cache`.
  ScoringService(const Detector& detector, const Dataset& data,
                 const ScoringServiceOptions& options = {},
                 ThreadPool* pool = nullptr);

  /// Service sharing an external cache (e.g. one budget across several
  /// detectors); `cache` may be null for a pure single-flight service.
  ScoringService(const Detector& detector, const Dataset& data,
                 std::shared_ptr<ScoreCache> cache, ThreadPool* pool = nullptr);

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Standardized scores of every dataset point within `subspace`. Served
  /// from cache when possible; otherwise computed once, even under
  /// concurrent identical requests.
  ScoreVectorPtr Score(const Subspace& subspace);

  /// Cache-only lookup: the cached vector of `subspace`, counted as a hit,
  /// or null, counted as nothing, so the request's later `Score` counts it
  /// once. Never calls the detector.
  ScoreVectorPtr Cached(const Subspace& subspace);

  /// Batch variant: scores each requested subspace, computing the unique
  /// uncached ones in parallel on the pool (sequentially without one).
  /// `results[i]` corresponds to `subspaces[i]`; duplicates share one
  /// computation.
  std::vector<ScoreVectorPtr> ScoreMany(std::span<const Subspace> subspaces);

  /// Counter snapshot (hits/misses/dedup-joins/evictions/compute-ns).
  ServiceStatsSnapshot stats() const { return stats_->snapshot(); }
  /// Zeroes the counters (e.g. between benchmark phases).
  void ResetStats() { stats_->Reset(); }

  const Detector& detector() const { return detector_; }
  const Dataset& data() const { return data_; }
  /// The detector's display name, also the cache key prefix.
  const std::string& detector_name() const { return detector_name_; }
  ThreadPool* pool() const { return pool_; }
  /// The underlying cache (null when constructed cache-less).
  const std::shared_ptr<ScoreCache>& cache() const { return cache_; }
  /// This service's share of its dataset's kNN lists (knn_share.h); null
  /// when its cache has no `EvictionManager` to charge them to.
  const KnnShareMember* knn_share() const { return knn_share_.get(); }

 private:
  /// The cached vector of `key`, counted as a hit; null on a miss or
  /// without a cache.
  ScoreVectorPtr Hit(const ScoreKey& key);
  ScoreVectorPtr ComputeAndPublish(const ScoreKey& key,
                                   std::promise<ScoreVectorPtr>& promise);
  /// Joins the kNN-share scope of (data, cache manager), if there is a
  /// manager; registers the kNN counters either way.
  void JoinKnnShare();

  const Detector& detector_;
  const Dataset& data_;
  std::string detector_name_;
  std::shared_ptr<ServiceStats> stats_;
  std::shared_ptr<ScoreCache> cache_;
  ThreadPool* pool_;
  /// Global-registry latency histograms fed per fresh computation:
  /// `detect.score` across all detectors plus `detect.score.<name>`.
  Histogram* score_histogram_;
  Histogram* detector_histogram_;
  /// Hardware-counter instruments of this detector's score kernel
  /// (`prof.*.detect.<name>`), fed by a `CounterSpan` around each fresh
  /// computation; zeros when perf counters are unavailable.
  ProfCounterSet prof_counters_;
  /// Installed around each fresh computation, so LOF, Fast ABOD and
  /// kNN-distance services over one dataset run each neighbour search once.
  std::unique_ptr<KnnShareMember> knn_share_;

  std::mutex inflight_mutex_;
  std::unordered_map<ScoreKey, std::shared_future<ScoreVectorPtr>,
                     ScoreKeyHash>
      inflight_;
};

/// `Detector` adapter routing `Score` through a `ScoringService`, so every
/// existing explainer/pipeline/builder taking `const Detector&` gains
/// caching + deduplication without code changes. Returns the service's
/// standardized vectors and reports `ReturnsStandardizedScores() == true`,
/// so `ScoreStandardized(adapter, ...)` passes them through bitwise-intact.
/// Only valid for the service's own dataset (checked).
class CachingDetector : public Detector {
 public:
  explicit CachingDetector(ScoringService& service) : service_(service) {}

  std::string name() const override { return service_.detector_name(); }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;
  bool ReturnsStandardizedScores() const override { return true; }

  ScoringService& service() const { return service_; }

 private:
  ScoringService& service_;
};

}  // namespace subex

#endif  // SUBEX_SERVE_SCORING_SERVICE_H_
