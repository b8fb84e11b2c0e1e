// kNN lists shared between the LOF and Fast ABOD services of one dataset:
// score vectors bitwise equal to the unshared direct path in either request
// order, at clamped k, over non-finite and duplicate-heavy data and under
// concurrency; tables dropped once every kNN consumer took them and with the
// last service; and a tight memory budget that evicts the same score vectors
// with sharing as without.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "detect/fast_abod.h"
#include "detect/isolation_forest.h"
#include "detect/knn_share.h"
#include "detect/lof.h"
#include "knn_pinned_data.h"
#include "mem/eviction_manager.h"
#include "obs/registry.h"
#include "serve/scoring_service.h"
#include "subspace/enumeration.h"

namespace subex {
namespace {

using knn_pinned::DuplicateHeavy;
using knn_pinned::Hics;
using knn_pinned::NonFinite;
using knn_pinned::Subspaces;

ScoringServiceOptions Governed(EvictionManager& manager,
                               std::size_t max_bytes = 64ull << 20) {
  ScoringServiceOptions options;
  options.cache.manager = &manager;
  options.cache.max_bytes = max_bytes;
  return options;
}

// The first `n` rows of `data`.
Dataset Head(const Dataset& data, std::size_t n) {
  Matrix m(n, data.num_features());
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      m(p, f) = data.matrix()(p, f);
    }
  }
  return Dataset(std::move(m));
}

std::uint64_t Sweeps() { return KnnSweepCounter().value(); }
std::uint64_t Shared() { return KnnSharedCounter().value(); }

struct Fixture {
  std::string name;
  Dataset data;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  out.push_back({"hics", Hics(300)});
  out.push_back({"duplicates", DuplicateHeavy()});
  out.push_back({"non-finite", NonFinite()});
  // k clamps to n - 1: both detectors at n = 8, LOF alone at n = 12.
  out.push_back({"n=8", Head(Hics(300), 8)});
  out.push_back({"n=12", Head(Hics(300), 12)});
  return out;
}

void ExpectBitwise(const std::vector<double>& got,
                   const std::vector<double>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(std::memcmp(&got[p], &want[p], sizeof(double)), 0)
        << where << " point " << p << ": " << got[p] << " vs " << want[p];
  }
}

// Each order scores every subspace through one service, then through the
// other (the order an explainer grid visits them), and compares every
// vector with the direct, unshared path.
TEST(KnnShareTest, BothRequestOrdersMatchDirectPathBitwise) {
  const Lof lof(15);
  const FastAbod fast_abod(10);
  for (const Fixture& fixture : Fixtures()) {
    const std::vector<Subspace> subspaces = Subspaces(fixture.data);
    for (bool lof_first : {true, false}) {
      EvictionManager manager;
      ScoringService lof_service(lof, fixture.data, Governed(manager));
      ScoringService abod_service(fast_abod, fixture.data, Governed(manager));
      ScoringService* order[2] = {&lof_service, &abod_service};
      if (!lof_first) std::swap(order[0], order[1]);
      const std::uint64_t sweeps = Sweeps();
      const std::uint64_t shared = Shared();
      for (ScoringService* service : order) {
        for (const Subspace& s : subspaces) {
          const std::string where =
              fixture.name + " " + service->detector_name() +
              (lof_first ? " (LOF first) " : " (ABOD first) ") + s.ToString();
          ExpectBitwise(*service->Score(s),
                        ScoreStandardized(service->detector(), fixture.data, s),
                        where);
        }
      }
      // The direct path above swept once per vector, unshared.
      const std::uint64_t service_sweeps =
          Sweeps() - sweeps - 2 * subspaces.size();
      EXPECT_EQ(service_sweeps + (Shared() - shared), 2 * subspaces.size());
      if (lof_first) {
        // LOF's k = 15 tables hold Fast ABOD's k = 10 rows as prefixes.
        EXPECT_EQ(Shared() - shared, subspaces.size()) << fixture.name;
      }
      // Both services took every table, so none is left.
      EXPECT_EQ(lof_service.knn_share()->retained_bytes(), 0u) << fixture.name;
    }
  }
}

// Past 65535 points a table stores 32-bit indices.
TEST(KnnShareTest, WideIndicesPastUint16MatchDirectPath) {
  constexpr std::size_t kPoints = 70000;
  Rng rng(3);
  Matrix m(kPoints, 2);
  for (std::size_t p = 0; p < kPoints; ++p) {
    m(p, 0) = rng.Uniform();
    m(p, 1) = rng.Uniform();
  }
  const Dataset data(std::move(m));
  const Lof lof(15);
  const FastAbod fast_abod(10);
  EvictionManager manager;
  ScoringService lof_service(lof, data, Governed(manager));
  ScoringService abod_service(fast_abod, data, Governed(manager));
  const Subspace subspace({0, 1});
  const std::uint64_t shared = Shared();
  ExpectBitwise(*lof_service.Score(subspace),
                ScoreStandardized(lof, data, subspace), "LOF");
  EXPECT_GT(lof_service.knn_share()->retained_bytes(),
            kPoints * 15 * sizeof(std::uint32_t));
  ExpectBitwise(*abod_service.Score(subspace),
                ScoreStandardized(fast_abod, data, subspace), "FastABOD");
  EXPECT_EQ(Shared() - shared, 1u);
}

// Both services fan batches out over one 4-thread pool at the same time;
// every vector still matches the direct path.
TEST(KnnShareTest, ConcurrentRequestsOnFourThreadPoolMatchDirectPath) {
  const Dataset data = Hics(300);
  const std::vector<Subspace> subspaces = Subspaces(data);
  const Lof lof(15);
  const FastAbod fast_abod(10);
  std::vector<std::vector<double>> lof_direct, abod_direct;
  for (const Subspace& s : subspaces) {
    lof_direct.push_back(ScoreStandardized(lof, data, s));
    abod_direct.push_back(ScoreStandardized(fast_abod, data, s));
  }
  for (int round = 0; round < 3; ++round) {
    EvictionManager manager;
    ThreadPool pool(4);
    ScoringService lof_service(lof, data, Governed(manager), &pool);
    ScoringService abod_service(fast_abod, data, Governed(manager), &pool);
    std::vector<ScoreVectorPtr> lof_got, abod_got;
    std::thread lof_thread([&] { lof_got = lof_service.ScoreMany(subspaces); });
    std::thread abod_thread(
        [&] { abod_got = abod_service.ScoreMany(subspaces); });
    lof_thread.join();
    abod_thread.join();
    for (std::size_t i = 0; i < subspaces.size(); ++i) {
      ExpectBitwise(*lof_got[i], lof_direct[i],
                    "LOF " + subspaces[i].ToString());
      ExpectBitwise(*abod_got[i], abod_direct[i],
                    "FastABOD " + subspaces[i].ToString());
    }
  }
}

// A table stays while a service that has not scored anything yet may ask
// for it, goes once that service turns out to need no kNN lists, and
// everything goes with the last service: a new set sweeps again.
TEST(KnnShareTest, TablesLiveOnlyWhileAServiceMayStillTakeThem) {
  const Dataset data = Hics(300);
  const std::vector<Subspace> subspaces = EnumerateSubspaces(8, 2);
  const Lof lof(15);
  const FastAbod fast_abod(10);
  IsolationForest::Options forest_options;
  forest_options.num_trees = 10;
  forest_options.num_repetitions = 1;
  const IsolationForest forest(forest_options);
  EvictionManager manager;
  for (int set = 0; set < 2; ++set) {
    auto lof_service =
        std::make_unique<ScoringService>(lof, data, Governed(manager));
    auto abod_service =
        std::make_unique<ScoringService>(fast_abod, data, Governed(manager));
    auto forest_service =
        std::make_unique<ScoringService>(forest, data, Governed(manager));
    const KnnShareMember& share = *lof_service->knn_share();
    EXPECT_EQ(share.retained_bytes(), 0u);

    const std::uint64_t sweeps = Sweeps();
    const std::uint64_t shared = Shared();
    lof_service->ScoreMany(subspaces);
    // Every LOF sweep ran anew: nothing survived the previous set.
    EXPECT_EQ(Sweeps() - sweeps, subspaces.size());
    const std::size_t after_lof = share.retained_bytes();
    EXPECT_GT(after_lof, subspaces.size() * 300 * 15 * sizeof(std::uint16_t));
    bool listed = false;
    for (const MemCacheStats& cache : manager.snapshot().caches) {
      if (cache.name != "knn_share") continue;
      listed = true;
      EXPECT_EQ(cache.resident_bytes, after_lof);
    }
    EXPECT_TRUE(listed);

    abod_service->ScoreMany(subspaces);
    EXPECT_EQ(Shared() - shared, subspaces.size());
    EXPECT_EQ(Sweeps() - sweeps, subspaces.size());
    // The forest service has not said yet whether it needs kNN lists.
    EXPECT_EQ(share.retained_bytes(), after_lof);
    forest_service->Score(subspaces.front());
    EXPECT_EQ(share.retained_bytes(), 0u);

    // A table swept while the other kNN service is alive stays until the
    // last service goes.
    lof_service->Score(Subspace({0, 1, 2, 3}));
    EXPECT_GT(share.retained_bytes(), 0u);
    lof_service.reset();
    EXPECT_GT(manager.used_bytes(), 0u);
    abod_service.reset();
    forest_service.reset();
    EXPECT_EQ(manager.used_bytes(), 0u);
    for (const MemCacheStats& cache : manager.snapshot().caches) {
      EXPECT_NE(cache.name, "knn_share");
    }
  }
}

// The scope keeps at most the largest score-cache budget of its services:
// the oldest tables make room for new ones.
TEST(KnnShareTest, RetainedTablesStayWithinTheScoreCacheBudget) {
  const Dataset data = Hics(300);
  const std::vector<Subspace> subspaces = EnumerateSubspaces(8, 2);
  const Lof lof(15);
  const FastAbod fast_abod(10);
  constexpr std::size_t kCap = 20 << 10;  // Two 300 x 15 tables.
  EvictionManager manager;
  ScoringService lof_service(lof, data, Governed(manager, kCap));
  ScoringService abod_service(fast_abod, data, Governed(manager, kCap));
  const std::uint64_t shared = Shared();
  for (const Subspace& s : subspaces) {
    lof_service.Score(s);
    EXPECT_LE(lof_service.knn_share()->retained_bytes(), kCap);
  }
  EXPECT_GT(lof_service.knn_share()->retained_bytes(), kCap / 2);
  // The newest two tables are the ones left.
  abod_service.Score(subspaces.back());
  abod_service.Score(subspaces[subspaces.size() - 2]);
  EXPECT_EQ(Shared() - shared, 2u);
}

// Services without an eviction manager share nothing and keep ComputeKnn's
// plain path; so does a service alone on its dataset.
TEST(KnnShareTest, UngovernedOrLoneServicesSweepAsBefore) {
  const Dataset data = Hics(300);
  const Lof lof(15);
  const FastAbod fast_abod(10);
  ScoringService plain_lof(lof, data);
  ScoringService plain_abod(fast_abod, data);
  EXPECT_EQ(plain_lof.knn_share(), nullptr);
  const std::uint64_t shared = Shared();
  plain_lof.Score(Subspace({0, 1}));
  plain_abod.Score(Subspace({0, 1}));
  EXPECT_EQ(Shared(), shared);

  EvictionManager manager;
  ScoringService lone(lof, data, Governed(manager));
  lone.Score(Subspace({2, 3}));
  EXPECT_EQ(lone.knn_share()->retained_bytes(), 0u);
  EXPECT_EQ(Shared(), shared);
}

// Under a budget far below the working set, the score caches evict the
// same vectors whether the kNN services share tables (one dataset) or not
// (an identical copy per service): a table is reserved only into free
// budget and reclaimed before any score vector.
TEST(KnnShareTest, TinyBudgetEvictsTheSameScoreVectorsWithAndWithoutSharing) {
  const Dataset data = Hics(300);
  const Dataset copy = Hics(300);
  const std::vector<Subspace> keys = EnumerateSubspaces(8, 3);
  const Lof lof(15);
  const FastAbod fast_abod(10);
  constexpr std::size_t kBudget = 48 << 10;

  struct Outcome {
    std::vector<std::vector<double>> scores;
    std::vector<std::uint64_t> cache_evictions;
    std::uint64_t shared = 0;
  };
  auto run = [&](bool share) {
    EvictionManager::Options manager_options;
    manager_options.budget_bytes = kBudget;
    EvictionManager manager(manager_options);
    // Only the global budget binds (no per-cache quota).
    ScoringServiceOptions options = Governed(manager, 0);
    options.cache.num_shards = 1;
    ScoringService lof_service(lof, data, options);
    ScoringService abod_service(fast_abod, share ? data : copy, options);
    Outcome out;
    const std::uint64_t shared = Shared();
    // A skewed request stream, each key asked of one detector, then the
    // other: popular keys repeat, the tail misses.
    for (int i = 0; i < 400; ++i) {
      const std::size_t key = static_cast<std::size_t>(
          (i / 2) % 3 == 0 ? (i / 2 * 7919) % static_cast<int>(keys.size())
                           : (i / 2 * 31) % 12);
      ScoringService& service =
          (i + i / 7) % 2 == 0 ? lof_service : abod_service;
      out.scores.push_back(*service.Score(keys[key]));
      EXPECT_LE(manager.used_bytes(), kBudget);
    }
    out.shared = Shared() - shared;
    out.cache_evictions = {lof_service.stats().evictions,
                           abod_service.stats().evictions};
    return out;
  };
  const Outcome shared = run(true);
  const Outcome alone = run(false);
  EXPECT_GT(shared.shared, 0u);
  EXPECT_EQ(alone.shared, 0u);
  EXPECT_GT(alone.cache_evictions[0] + alone.cache_evictions[1], 0u);
  EXPECT_EQ(shared.cache_evictions, alone.cache_evictions);
  ASSERT_EQ(shared.scores.size(), alone.scores.size());
  for (std::size_t i = 0; i < shared.scores.size(); ++i) {
    ExpectBitwise(shared.scores[i], alone.scores[i],
                  "request " + std::to_string(i));
  }
}

// A service's construction registers the kNN counters, so a scrape lists
// them before any sweep.
TEST(KnnShareTest, ServiceRegistersKnnCounters) {
  const Dataset data = Hics(300);
  const Lof lof(15);
  ScoringService service(lof, data);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.count("detect.knn.sweeps"), 1u);
  EXPECT_EQ(snapshot.counters.count("detect.knn.shared"), 1u);
}

}  // namespace
}  // namespace subex
