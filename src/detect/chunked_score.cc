#include "detect/chunked_score.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "detect/knn.h"
#include "detect/lof.h"

namespace subex {
namespace {

/// Gathers the subspace feature values of `rows` (any order) into a
/// row-major `rows.size() x features.size()` buffer, pinning each touched
/// chunk once per (feature, block).
std::vector<double> GatherRows(ChunkedDataset& data,
                               std::span<const FeatureId> features,
                               std::span<const int> rows) {
  std::vector<double> values(rows.size() * features.size());
  for (std::size_t block = 0; block < data.num_blocks(); ++block) {
    const std::size_t lo = block * data.rows_per_chunk();
    const std::size_t hi = lo + data.RowsInBlock(block);
    // Skip blocks containing none of the requested rows.
    bool any = false;
    for (int r : rows) {
      if (static_cast<std::size_t>(r) >= lo && static_cast<std::size_t>(r) < hi) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    for (std::size_t j = 0; j < features.size(); ++j) {
      Pinned<ColumnChunk> chunk = data.Chunk(features[j], block);
      SUBEX_CHECK_MSG(chunk.valid(), "chunk read failed");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t r = static_cast<std::size_t>(rows[i]);
        if (r >= lo && r < hi) values[i * features.size() + j] = (*chunk)[r - lo];
      }
    }
  }
  return values;
}

/// All point ids, for the empty-queries = "score everything" convention.
std::vector<int> AllRows(const ChunkedDataset& data) {
  std::vector<int> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

std::vector<std::vector<Neighbor>> ComputeKnnChunked(
    ChunkedDataset& data, std::span<const FeatureId> features, int k,
    std::span<const int> queries) {
  const std::size_t n = data.num_rows();
  SUBEX_CHECK_MSG(n >= 2, "kNN needs at least two points");
  SUBEX_CHECK(k >= 1);
  k = std::min(k, static_cast<int>(n) - 1);

  const std::size_t num_features = features.size();
  const std::vector<double> qvals = GatherRows(data, features, queries);

  // One sorted best-k list per query, filled by `InsertCandidate` as the
  // sweep's are: `NeighborLess` is a total order on candidates, so each
  // list ends as `ComputeKnn`'s row, whatever order the rows stream in.
  std::vector<std::vector<Neighbor>> lists(queries.size(),
                                           std::vector<Neighbor>(k));
  std::vector<int> counts(queries.size(), 0);

  std::vector<Pinned<ColumnChunk>> chunks(num_features);
  for (std::size_t block = 0; block < data.num_blocks(); ++block) {
    for (std::size_t j = 0; j < num_features; ++j) {
      chunks[j] = data.Chunk(features[j], block);
      SUBEX_CHECK_MSG(chunks[j].valid(), "chunk read failed");
    }
    const std::size_t rows = data.RowsInBlock(block);
    const std::size_t base = block * data.rows_per_chunk();
    for (std::size_t r = 0; r < rows; ++r) {
      const int g = static_cast<int>(base + r);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        if (g == queries[qi]) continue;
        const double* qv = qvals.data() + qi * num_features;
        // Identical accumulation order to `SquaredDistance`: one add per
        // feature, in subspace order.
        double sum = 0.0;
        for (std::size_t j = 0; j < num_features; ++j) {
          const double d = qv[j] - (*chunks[j])[r];
          sum += d * d;
        }
        InsertCandidate({sum, g}, k, lists[qi].data(), counts[qi]);
      }
    }
    for (auto& chunk : chunks) chunk.Release();
  }

  for (auto& list : lists) {
    for (Neighbor& nb : list) nb.distance = std::sqrt(nb.distance);
  }
  return lists;
}

std::vector<double> ScoreKnnDistanceChunked(
    ChunkedDataset& data, const Subspace& subspace, int k,
    KnnDistance::Aggregation aggregation, std::span<const int> queries) {
  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_cols(), full);
  std::vector<int> all;
  if (queries.empty()) {
    all = AllRows(data);
    queries = all;
  }
  const std::vector<std::vector<Neighbor>> knn =
      ComputeKnnChunked(data, features, k, queries);

  std::vector<double> scores(queries.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = KnnDistance::Aggregate(knn[i], aggregation);
  }
  return scores;
}

std::vector<double> ScoreLofChunked(ChunkedDataset& data,
                                    const Subspace& subspace, int k,
                                    std::span<const int> queries) {
  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_cols(), full);
  std::vector<int> all;
  if (queries.empty()) {
    all = AllRows(data);
    queries = all;
  }

  // Round 1: kNN lists of the queries. Rounds 2 and 3 extend to the one-
  // and two-hop neighborhoods — lrd(p) reads the k-distance of every
  // neighbor of p, and LOF(p) reads lrd of every neighbor, whose own lrd
  // reads k-distances one hop further.
  std::unordered_map<int, std::vector<Neighbor>> lists;
  std::vector<int> frontier(queries.begin(), queries.end());
  for (int round = 0; round < 3 && !frontier.empty(); ++round) {
    std::vector<std::vector<Neighbor>> batch =
        ComputeKnnChunked(data, features, k, frontier);
    std::unordered_set<int> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      for (const Neighbor& nb : batch[i]) {
        if (lists.find(nb.index) == lists.end()) next.insert(nb.index);
      }
      lists.emplace(frontier[i], std::move(batch[i]));
    }
    frontier.clear();
    for (int id : next) {
      if (lists.find(id) == lists.end()) frontier.push_back(id);
    }
    std::sort(frontier.begin(), frontier.end());
  }

  // `Lof::Score`'s formulas, over the closure's lists, lrd memoized.
  auto row = [&lists](int p) -> std::span<const Neighbor> {
    const auto it = lists.find(p);
    SUBEX_CHECK_MSG(it != lists.end(), "kNN list missing for point");
    return it->second;
  };
  std::unordered_map<int, double> lrd;
  auto lrd_of = [&](int p) -> double {
    const auto cached = lrd.find(p);
    if (cached != lrd.end()) return cached->second;
    const double value =
        LofLrd(row(p), [&row](int o) { return row(o).back().distance; });
    lrd.emplace(p, value);
    return value;
  };

  std::vector<double> scores(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    scores[i] = LofRatio(queries[i], row(queries[i]), lrd_of);
  }
  return scores;
}

std::vector<double> ScoreLodaChunked(ChunkedDataset& data,
                                     const Subspace& subspace,
                                     const Loda::Options& options) {
  const Loda loda(options);
  const int n = static_cast<int>(data.num_rows());
  SUBEX_CHECK(n >= 3);
  const int bins = loda.NumBins(n);
  std::vector<double> neg_log_density_sum(n, 0.0);

  // Applies `fn(global_row, projected_value)` to every point, recomputing
  // the projection chunk by chunk; every pass computes the same doubles.
  std::vector<Pinned<ColumnChunk>> chunks;
  auto for_each_projection = [&](const Loda::Projector& proj, auto&& fn) {
    chunks.resize(proj.features.size());
    for (std::size_t block = 0; block < data.num_blocks(); ++block) {
      for (std::size_t j = 0; j < chunks.size(); ++j) {
        chunks[j] = data.Chunk(proj.features[j], block);
        SUBEX_CHECK_MSG(chunks[j].valid(), "chunk read failed");
      }
      const std::size_t rows = data.RowsInBlock(block);
      const std::size_t base = block * data.rows_per_chunk();
      for (std::size_t r = 0; r < rows; ++r) {
        fn(base + r,
           proj.Project([&](std::size_t j) { return (*chunks[j])[r]; }));
      }
    }
    chunks.clear();
  };

  for (const Loda::Projector& proj :
       loda.DrawProjectors(subspace, data.num_cols())) {
    Loda::Range range;
    for_each_projection(proj, [&](std::size_t, double v) { range.Fold(v); });
    Loda::Histogram histogram(range, bins);
    if (!histogram.finite(n)) continue;
    for_each_projection(proj,
                        [&](std::size_t, double v) { histogram.Add(v); });
    for_each_projection(proj, [&](std::size_t p, double v) {
      neg_log_density_sum[p] -= histogram.LogDensity(v, n);
    });
  }
  for (double& s : neg_log_density_sum) s /= options.num_projections;
  return neg_log_density_sum;
}

}  // namespace subex
