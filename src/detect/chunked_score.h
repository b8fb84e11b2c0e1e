#ifndef SUBEX_DETECT_CHUNKED_SCORE_H_
#define SUBEX_DETECT_CHUNKED_SCORE_H_

#include <span>
#include <vector>

#include "data/chunked_dataset.h"
#include "detect/knn.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "subspace/subspace.h"

namespace subex {

/// Streaming counterparts of the in-RAM detectors, reading a
/// `ChunkedDataset` chunk by chunk so datasets far larger than RAM score
/// under a fixed memory budget. The scorers only drive the in-RAM
/// detectors' own code — `ResolveFeatures`, `InsertCandidate`,
/// `KnnDistance::Aggregate`, `LofLrd` / `LofRatio` and the `Loda` kernel —
/// and accumulate distances in `SquaredDistance`'s order, so streamed
/// scores are bitwise equal to `Detector::Score` on the same data, which
/// the tests assert.
///
/// The distance-based scorers take an explicit query set because scoring
/// all points is O(n^2): at the scale that motivates chunking, callers
/// score the points of interest (and, for LOF, the scorer internally
/// extends the set with the one- and two-hop neighborhoods it needs). An
/// empty query span means all points — the cross-check path for data that
/// also fits in RAM.

/// Streaming batched brute-force kNN: one pass over the dataset's chunks
/// computes, for every row of `queries`, the same k-nearest list
/// `ComputeKnn` produces (sqrt'ed distances, `NeighborLess` order, k
/// clamped to n-1), in query order. It streams rows in storage order, so
/// it cannot sort them like `ComputeKnn` does; each query's sorted best-k
/// list takes every row through `InsertCandidate`, as the sweep's do.
/// Memory: |features| pinned chunks + O(|queries| * k).
std::vector<std::vector<Neighbor>> ComputeKnnChunked(
    ChunkedDataset& data, std::span<const FeatureId> features, int k,
    std::span<const int> queries);

/// kNN-distance scores (k-th or mean neighbor distance) for `queries`,
/// returned in query order. Empty `queries` = all points, in point order.
/// Matches `KnnDistance(k, aggregation).Score(...)` bitwise.
std::vector<double> ScoreKnnDistanceChunked(
    ChunkedDataset& data, const Subspace& subspace, int k,
    KnnDistance::Aggregation aggregation,
    std::span<const int> queries = {});

/// LOF scores for `queries`, returned in query order (empty = all points).
/// Streams three batched kNN rounds — queries, their neighbors, and the
/// neighbors' neighbors (the reachability closure LOF needs) — instead of
/// the in-RAM all-points kNN table. Matches `Lof(k).Score(...)` bitwise.
std::vector<double> ScoreLofChunked(ChunkedDataset& data,
                                    const Subspace& subspace, int k,
                                    std::span<const int> queries = {});

/// LODA scores for every point (LODA is linear in n, so the full vector is
/// the natural unit), built on the `Loda` kernel. Per projector, three
/// streaming passes over the active-feature chunks — range, histogram,
/// density — recompute the projection rather than materializing a
/// per-point array, so the neg-log-density accumulator stays the only O(n)
/// state. Matches `Loda(options).Score(...)` bitwise,
/// non-finite values included.
std::vector<double> ScoreLodaChunked(ChunkedDataset& data,
                                     const Subspace& subspace,
                                     const Loda::Options& options);

}  // namespace subex

#endif  // SUBEX_DETECT_CHUNKED_SCORE_H_
