#ifndef SUBEX_DETECT_KNN_SHARE_H_
#define SUBEX_DETECT_KNN_SHARE_H_

#include <cstddef>
#include <memory>

#include "data/dataset.h"
#include "detect/knn.h"
#include "mem/eviction_manager.h"
#include "obs/metrics.h"
#include "subspace/subspace.h"

namespace subex {

class KnnShareScope;

/// `ComputeKnn`'s shared path: fills `*out` and returns true when the
/// calling thread has a `KnnShareBinding` for `data` installed; returns
/// false otherwise.
bool TakeSharedKnn(const Dataset& data, const Subspace& subspace, int k,
                   KnnTable* out);

/// Registry counters of the kNN layer: `detect.knn.sweeps` counts neighbour
/// searches run (`SweepKnn`), `detect.knn.shared` counts tables a scope
/// served from another detector's sweep instead.
Counter& KnnSweepCounter();
Counter& KnnSharedCounter();

/// One scoring service's membership in the kNN-share scope of its dataset
/// and eviction manager.
///
/// LOF, Fast ABOD and kNN-distance all start from the same neighbour
/// search, and every explainer scores each detector over the same
/// subspaces. The members of one scope hand each other the tables they
/// computed: `NeighborLess` is a total order on distinct indices, so the
/// first k entries of a sorted k'-row (k <= k', both clamped to n - 1) are
/// the k-row itself, and distances rebuilt from the stored indices in the
/// sweep's accumulation order are bitwise the sweep's.
///
/// The scope keeps a table (as compact `uint16_t` indices when n <= 65535,
/// else `uint32_t`), swept at the largest k any member has asked for, only
/// while another member may still ask for it: a member that has not
/// completed a call yet may, one whose first completed call asked for no
/// kNN lists never will. A table goes once every such member took it, when
/// the oldest must make room under `cap_bytes`, or when its manager
/// reclaims it; everything goes with the last member. Retained bytes are
/// charged to the manager as the governed cache `knn_share`, reserved only
/// where budget is free and reclaimed before any other cache's entries, so
/// keeping a table never evicts a score vector.
class KnnShareMember {
 public:
  /// Joins (creating on first use) the scope of (`data`, `manager`).
  /// `cap_bytes` bounds the scope's retained tables (0 = only the
  /// manager's budget does); a scope takes the largest cap of its members.
  /// A scope has room for 64 live members; a further one shares nothing.
  KnnShareMember(const Dataset& data, EvictionManager& manager,
                 std::size_t cap_bytes);
  /// Leaves the scope; the last member drops it with every table.
  ~KnnShareMember();

  KnnShareMember(const KnnShareMember&) = delete;
  KnnShareMember& operator=(const KnnShareMember&) = delete;

  /// Bytes the scope retains right now (tables plus bookkeeping).
  std::size_t retained_bytes() const;

 private:
  friend class KnnShareBinding;
  friend bool TakeSharedKnn(const Dataset&, const Subspace&, int, KnnTable*);

  std::shared_ptr<KnnShareScope> scope_;
  int slot_ = -1;  // -1 = the scope was full; this member shares nothing.
};

/// Installs `member` as the calling thread's kNN context for one detector
/// call, the way `TraceContext` installs a trace: while it lives,
/// `ComputeKnn` on the member's dataset goes through the member's scope.
/// A null member installs nothing. Bindings nest; the innermost wins.
class KnnShareBinding {
 public:
  explicit KnnShareBinding(KnnShareMember* member);
  ~KnnShareBinding();

  KnnShareBinding(const KnnShareBinding&) = delete;
  KnnShareBinding& operator=(const KnnShareBinding&) = delete;

  /// Marks the detector call as returned normally. A member whose first
  /// such call asked for no kNN table is no kNN consumer, and the scope
  /// stops keeping tables for it.
  void Completed();

 private:
  friend bool TakeSharedKnn(const Dataset&, const Subspace&, int, KnnTable*);

  KnnShareMember* member_;
  KnnShareBinding* previous_;
  bool asked_ = false;
};

}  // namespace subex

#endif  // SUBEX_DETECT_KNN_SHARE_H_
