#include "online/windowed_scorer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace subex {

namespace {

/// One row's projected value per projector; `value(f)` is the row's value
/// of feature `f`.
template <typename ValueOf>
std::vector<double> ProjectRow(const std::vector<Loda::Projector>& projectors,
                               ValueOf&& value) {
  std::vector<double> vals(projectors.size());
  for (std::size_t t = 0; t < projectors.size(); ++t) {
    const Loda::Projector& proj = projectors[t];
    vals[t] = proj.Project(
        [&](std::size_t j) { return value(proj.features[j]); });
  }
  return vals;
}

}  // namespace

struct IncrementalLodaScorer::SubspaceState {
  Subspace subspace;
  std::vector<Loda::Projector> projectors;
  /// Per projector: the range of its window values and the histogram over
  /// them.
  std::vector<Loda::Range> ranges;
  std::vector<Loda::Histogram> histograms;
  /// Projected values of every window row (oldest first): one value per
  /// projector, computed once at point entry.
  std::deque<std::vector<double>> projected;
  int bins = 0;
  std::uint64_t last_touch = 0;
};

IncrementalLodaScorer::IncrementalLodaScorer(const Loda::Options& options,
                                             std::size_t max_subspace_states)
    : batch_(options), max_subspace_states_(max_subspace_states) {
  SUBEX_CHECK(max_subspace_states >= 1);
}

IncrementalLodaScorer::~IncrementalLodaScorer() = default;

IncrementalLodaScorer::SubspaceState& IncrementalLodaScorer::StateFor(
    const Dataset& window, const Subspace& subspace) {
  for (auto& state : states_) {
    if (state->subspace == subspace) {
      state->last_touch = ++touch_clock_;
      return *state;
    }
  }
  if (states_.size() >= max_subspace_states_) {
    auto lru = std::min_element(states_.begin(), states_.end(),
                                [](const auto& a, const auto& b) {
                                  return a->last_touch < b->last_touch;
                                });
    states_.erase(lru);
  }

  auto state = std::make_unique<SubspaceState>();
  state->subspace = subspace;
  state->projectors = batch_.DrawProjectors(subspace, window.num_features());
  for (std::size_t p = 0; p < window.num_points(); ++p) {
    state->projected.push_back(ProjectRow(
        state->projectors, [&](FeatureId f) { return window.Value(p, f); }));
  }
  state->bins = batch_.NumBins(static_cast<int>(window.num_points()));
  const std::size_t num_proj = state->projectors.size();
  state->ranges.resize(num_proj);
  state->histograms.resize(num_proj);
  for (std::size_t t = 0; t < num_proj; ++t) {
    for (const auto& vals : state->projected) state->ranges[t].Fold(vals[t]);
    RebuildHistogram(*state, t);
  }

  state->last_touch = ++touch_clock_;
  states_.push_back(std::move(state));
  return *states_.back();
}

void IncrementalLodaScorer::RebuildHistogram(SubspaceState& state,
                                             std::size_t t) {
  Loda::Histogram& histogram = state.histograms[t];
  histogram = Loda::Histogram(state.ranges[t], state.bins);
  for (const auto& vals : state.projected) histogram.Add(vals[t]);
  ++rebuilds_;
}

void IncrementalLodaScorer::AdvanceState(SubspaceState& state,
                                         const WindowDelta& delta) {
  const Matrix& entered = *delta.entered;
  for (std::size_t r = 0; r < entered.rows(); ++r) {
    state.projected.push_back(ProjectRow(
        state.projectors, [&](FeatureId f) {
          return entered(r, static_cast<std::size_t>(f));
        }));
  }
  // Exiting rows keep their projected values for the histogram decrements.
  std::vector<std::vector<double>> popped;
  popped.reserve(delta.num_exited);
  for (std::size_t i = 0; i < delta.num_exited; ++i) {
    SUBEX_CHECK(!state.projected.empty());
    popped.push_back(std::move(state.projected.front()));
    state.projected.pop_front();
  }
  SUBEX_CHECK_MSG(state.projected.size() == delta.window_size,
                  "scorer state diverged from window");

  const int old_bins = state.bins;
  state.bins = batch_.NumBins(static_cast<int>(delta.window_size));
  // When one advance pushes more rows than the window holds, the overflow
  // rows exited already (they sit at the end of `popped`). The entered rows
  // still present are the deque's newest `still_present`; the exited rows
  // that were counted are the first `exited_old` of `popped`.
  const std::size_t still_present =
      std::min(entered.rows(), delta.window_size);
  const std::size_t first_entered = state.projected.size() - still_present;
  const std::size_t exited_old =
      delta.num_exited - (entered.rows() - still_present);

  for (std::size_t t = 0; t < state.projectors.size(); ++t) {
    Loda::Range& range = state.ranges[t];
    // An exiting extreme may shrink the range: rescan. Otherwise the range
    // can only grow, by an entering value.
    const bool extremes_exited =
        std::any_of(popped.begin(), popped.end(), [&](const auto& vals) {
          return vals[t] <= range.lo || vals[t] >= range.hi;
        });
    Loda::Range next = extremes_exited ? Loda::Range{} : range;
    for (std::size_t i = extremes_exited ? 0 : first_entered;
         i < state.projected.size(); ++i) {
      next.Fold(state.projected[i][t]);
    }
    if (state.bins != old_bins || next != range) {
      range = next;
      RebuildHistogram(state, t);
      continue;
    }
    // Fast path: range and bin count unchanged, so every existing row keeps
    // its bin — add entering rows, subtract exiting ones.
    Loda::Histogram& histogram = state.histograms[t];
    for (std::size_t i = first_entered; i < state.projected.size(); ++i) {
      histogram.Add(state.projected[i][t]);
    }
    for (std::size_t i = 0; i < exited_old; ++i) histogram.Remove(popped[i][t]);
  }
}

void IncrementalLodaScorer::OnAdvance(const WindowDelta& delta) {
  SUBEX_CHECK(delta.entered != nullptr);
  for (auto& state : states_) AdvanceState(*state, delta);
}

std::vector<double> IncrementalLodaScorer::Score(const Dataset& window,
                                                 const Subspace& subspace) {
  const int n = static_cast<int>(window.num_points());
  SUBEX_CHECK(n >= 3);
  SubspaceState& state = StateFor(window, subspace);
  SUBEX_CHECK_MSG(state.projected.size() == window.num_points(),
                  "scorer state diverged from window");

  std::vector<std::size_t> finite;
  for (std::size_t t = 0; t < state.histograms.size(); ++t) {
    if (state.histograms[t].finite(n)) finite.push_back(t);
  }
  // Per point, the projectors' terms are summed in projector order, as
  // `Loda::Score` sums them, so the result is bitwise the batch one.
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (std::size_t p = 0; p < scores.size(); ++p) {
    const std::vector<double>& vals = state.projected[p];
    double sum = 0.0;
    for (std::size_t t : finite) {
      sum -= state.histograms[t].LogDensity(vals[t], n);
    }
    scores[p] = sum / batch_.options().num_projections;
  }
  return scores;
}

}  // namespace subex
