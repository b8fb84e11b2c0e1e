#ifndef SUBEX_ONLINE_WINDOWED_SCORER_H_
#define SUBEX_ONLINE_WINDOWED_SCORER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"
#include "detect/detector.h"
#include "detect/loda.h"
#include "subspace/subspace.h"

namespace subex {

/// What changed when an online window advanced: the rows pushed in (in push
/// order) and how many rows fell off the front. A scorer that mirrors the
/// window appends `entered` rows and then drops `num_exited` rows from its
/// oldest end — after both steps its row set matches the new window epoch
/// exactly, even when a single advance pushes more rows than the window
/// holds (some entered rows exit in the same advance).
struct WindowDelta {
  std::uint64_t epoch = 0;       ///< Epoch after the advance.
  std::size_t window_size = 0;   ///< Rows in the window after the advance.
  const Matrix* entered = nullptr;  ///< Rows pushed, oldest first.
  std::size_t num_exited = 0;    ///< Rows dropped from the oldest end.
};

/// A detector maintained against a sliding window.
///
/// `Score` returns **raw** (unstandardized) scores of every current window
/// row within `subspace`, bitwise identical to what `detector().Score`
/// would return on a fresh snapshot of the same window contents — that
/// parity is the contract tests assert per epoch, and what lets a stale
/// request fall back to a batch recompute on a pinned snapshot without
/// changing a single bit of the answer.
///
/// Not thread-safe: the owning `OnlineDataset` serializes all calls.
class WindowedScorer {
 public:
  virtual ~WindowedScorer() = default;

  /// The equivalent batch detector (the recompute-from-scratch reference).
  virtual const Detector& detector() const = 0;

  /// Folds one window advance into the incremental state.
  virtual void OnAdvance(const WindowDelta& delta) = 0;

  /// Raw scores of every row of the current window in `subspace`. `window`
  /// is the current epoch's snapshot (used to lazily build per-subspace
  /// state; implementations may ignore it once state exists).
  virtual std::vector<double> Score(const Dataset& window,
                                    const Subspace& subspace) = 0;
};

/// Incrementally maintained LODA, built on the `Loda` kernel (projector
/// draw, projection, bin count, range and histogram are `Loda`'s own, so
/// every score is bitwise `Loda::Score` on a snapshot).
///
/// Per subspace the scorer draws the batch projectors once and keeps the
/// projected values of every window row plus, per projector, the range of
/// those values and a histogram over them:
///
///  * point entry: one O(sqrt(d)) projection per projector, then a
///    histogram add;
///  * point exit: a histogram subtract using the stored projected value;
///  * when the range moves (an extreme exits or a new value widens it) or
///    the bin count (a function of the window size before saturation)
///    changes, that projector's histogram is rebuilt by one O(n) scan.
///
/// Scoring an epoch then only bins the stored projections and sums log
/// densities — the per-row dot products, the dominant batch cost, are paid
/// once per point instead of once per epoch.
///
/// Subspace states are LRU-bounded (`max_subspace_states`); evicted
/// subspaces rebuild lazily from the window snapshot on next use.
class IncrementalLodaScorer final : public WindowedScorer {
 public:
  explicit IncrementalLodaScorer(const Loda::Options& options,
                                 std::size_t max_subspace_states = 8);
  ~IncrementalLodaScorer() override;

  const Detector& detector() const override { return batch_; }
  void OnAdvance(const WindowDelta& delta) override;
  std::vector<double> Score(const Dataset& window,
                            const Subspace& subspace) override;

  /// Histogram rebuild count across all states (observability for tests:
  /// the fast path should dominate in steady state).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct SubspaceState;

  SubspaceState& StateFor(const Dataset& window, const Subspace& subspace);
  void RebuildHistogram(SubspaceState& state, std::size_t t);
  void AdvanceState(SubspaceState& state, const WindowDelta& delta);

  Loda batch_;
  std::size_t max_subspace_states_;
  std::vector<std::unique_ptr<SubspaceState>> states_;
  std::uint64_t touch_clock_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Epoch-tagged re-index scorer for detectors whose internals do not
/// decompose incrementally (kNN distance, LOF: the k-NN graph of a window
/// changes non-locally when a point enters or leaves). Each advance simply
/// invalidates the previous epoch's scores; `Score` recomputes on the new
/// window snapshot, and the owning dataset's per-epoch cache makes that
/// recompute happen at most once per (epoch, subspace) — the "re-index".
/// Parity with the batch path is exact by construction.
class ReindexScorer final : public WindowedScorer {
 public:
  explicit ReindexScorer(const Detector& detector) : detector_(detector) {}

  const Detector& detector() const override { return detector_; }
  void OnAdvance(const WindowDelta& delta) override { (void)delta; }
  std::vector<double> Score(const Dataset& window,
                            const Subspace& subspace) override {
    return detector_.Score(window, subspace);
  }

 private:
  const Detector& detector_;
};

}  // namespace subex

#endif  // SUBEX_ONLINE_WINDOWED_SCORER_H_
