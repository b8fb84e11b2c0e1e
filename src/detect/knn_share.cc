#include "detect/knn_share.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "obs/registry.h"

namespace subex {
namespace {

constexpr int kMaxMembers = 64;  // One bit per member in a table's mask.

/// Map node, list node and key header of one retained table, charged on
/// top of its index rows.
constexpr std::size_t kTableOverheadBytes = 128;

thread_local KnnShareBinding* t_binding = nullptr;

/// A table's neighbour indices, `k` per row, row-major, in the narrowest
/// type that holds every point id (one of the two vectors is empty).
struct KnnRows {
  int k = 0;
  std::vector<std::uint16_t> narrow;
  std::vector<std::uint32_t> wide;

  std::size_t bytes() const {
    return narrow.size() * sizeof(std::uint16_t) +
           wide.size() * sizeof(std::uint32_t);
  }
};

template <typename Index>
std::vector<Index> Indices(const KnnTable& table) {
  std::vector<Index> ids(table.entries.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<Index>(table.entries[i].index);
  }
  return ids;
}

KnnRows Compact(const KnnTable& table, int n) {
  KnnRows rows;
  rows.k = table.k;
  if (n <= 65535) {
    rows.narrow = Indices<std::uint16_t>(table);
  } else {
    rows.wide = Indices<std::uint32_t>(table);
  }
  return rows;
}

/// The first `k` entries of every row of `ids` (`row_k` per row), with the
/// distances recomputed by `SquaredDistance` (query minus neighbour), which
/// is how `SweepKnn` accumulates them, then `sqrt`. So the result is
/// bitwise `SweepKnn(data, _, k)`.
template <typename Index>
KnnTable Rebuild(const std::vector<Index>& ids, int row_k, int k,
                 const Dataset& data, const Subspace& subspace) {
  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_features(), full);
  const Matrix& m = data.matrix();
  const int n = static_cast<int>(data.num_points());
  KnnTable table;
  table.k = k;
  table.entries.resize(static_cast<std::size_t>(n) * k);
  for (int p = 0; p < n; ++p) {
    const Index* row = ids.data() + static_cast<std::size_t>(p) * row_k;
    Neighbor* out = table.entries.data() + static_cast<std::size_t>(p) * k;
    for (int i = 0; i < k; ++i) {
      out[i] = {std::sqrt(SquaredDistance(m, p, row[i], features)),
                static_cast<int>(row[i])};
    }
  }
  return table;
}

/// `table` cut to its first `k` entries per row (k <= table.k).
KnnTable Truncate(KnnTable table, int k) {
  if (table.k == k) return table;
  KnnTable out;
  out.k = k;
  out.entries.resize(table.entries.size() / table.k * k);
  const std::size_t n = table.entries.size() / table.k;
  for (std::size_t p = 0; p < n; ++p) {
    std::copy_n(table.entries.begin() + p * table.k, k,
                out.entries.begin() + p * k);
  }
  return out;
}

}  // namespace

Counter& KnnSweepCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("detect.knn.sweeps");
  return counter;
}

Counter& KnnSharedCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("detect.knn.shared");
  return counter;
}

/// The tables the members over one (dataset, manager) hand each other.
/// Lock order: the scope mutex is taken before the manager's accounting
/// mutex (`TryReserve`, `Release`), never while unregistering, and a
/// pressure pass takes it inside the manager's pressure mutex.
class KnnShareScope final : private MemReclaimer {
 public:
  KnnShareScope(const Dataset& data, EvictionManager& manager)
      : data_(data),
        manager_(manager),
        cache_id_(manager.Register("knn_share", 0, this)) {}

  ~KnnShareScope() override {
    // No pressure pass calls this reclaimer once Unregister returns; it
    // also un-charges whatever is still retained.
    manager_.Unregister(cache_id_);
  }

  const Dataset& data() const { return data_; }
  EvictionManager& manager() const { return manager_; }

  int Join(std::size_t cap_bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    cap_bytes_ = std::max(cap_bytes_, cap_bytes == 0 ? SIZE_MAX : cap_bytes);
    for (int slot = 0; slot < kMaxMembers; ++slot) {
      if (roles_[slot] != Role::kFree) continue;
      roles_[slot] = Role::kUnknown;
      consumers_ |= Bit(slot);
      return slot;
    }
    return -1;
  }

  void Leave(int slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    roles_[slot] = Role::kFree;
    consumers_ &= ~Bit(slot);
    for (auto& [subspace, table] : tables_) table.taken &= ~Bit(slot);
    DropSettledLocked();
  }

  void NoteNoKnn(int slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (roles_[slot] != Role::kUnknown) return;
    roles_[slot] = Role::kNone;
    consumers_ &= ~Bit(slot);
    DropSettledLocked();
  }

  KnnTable Take(int slot, const Subspace& subspace, int k) {
    const int n = static_cast<int>(data_.num_points());
    if (n < 2 || k < 1) return SweepKnn(data_, subspace, k);  // Reports it.
    k = std::min(k, n - 1);
    const std::uint64_t self = Bit(slot);
    std::shared_ptr<const KnnRows> rows;
    std::size_t reserved = 0;  // Charged up front for the table to keep.
    int sweep_k = k;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      roles_[slot] = Role::kKnn;
      consumers_ |= self;
      max_k_ = std::max(max_k_, k);
      std::uint64_t taken = self;
      const auto it = tables_.find(subspace);
      if (it != tables_.end()) {
        Table& table = it->second;
        table.taken |= self;
        taken = table.taken;
        if (table.rows->k >= k) rows = table.rows;
        if (Pending(table) == 0) manager_.Release(cache_id_, DropLocked(it));
      }
      // Sweep for the widest member only when the table can be kept.
      if (rows == nullptr && (consumers_ & ~taken) != 0) {
        const std::size_t bytes = TableBytes(n, max_k_, subspace);
        if (ReserveLocked(bytes)) {
          sweep_k = max_k_;
          reserved = bytes;
        }
      }
    }
    if (rows != nullptr) {
      KnnSharedCounter().Increment();
      return rows->narrow.empty()
                 ? Rebuild(rows->wide, rows->k, k, data_, subspace)
                 : Rebuild(rows->narrow, rows->k, k, data_, subspace);
    }
    KnnTable table = SweepKnn(data_, subspace, sweep_k);
    if (reserved > 0) {
      KnnRows compact = Compact(table, n);
      std::lock_guard<std::mutex> lock(mutex_);
      StoreLocked(subspace, std::move(compact), self, reserved);
    }
    return Truncate(std::move(table), k);
  }

  std::size_t retained_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return retained_;
  }

 private:
  /// kUnknown: has not completed a call yet, so may ask for any table.
  /// kKnn: has asked for one. kNone: completed a call without asking.
  enum class Role : std::uint8_t { kFree, kUnknown, kKnn, kNone };

  struct Table {
    std::shared_ptr<const KnnRows> rows;
    std::uint64_t taken = 0;  // Members that have scored the subspace.
    std::size_t bytes = 0;
    std::list<const Subspace*>::iterator age;
  };
  using TableMap = std::unordered_map<Subspace, Table, SubspaceHash>;

  static std::uint64_t Bit(int slot) { return std::uint64_t{1} << slot; }

  /// Members that may still ask for `table`. Caller holds mutex_.
  std::uint64_t Pending(const Table& table) const {
    return consumers_ & ~table.taken;
  }

  /// Forgets a table; returns its bytes for the caller to un-charge.
  std::size_t DropLocked(TableMap::iterator it) {
    const std::size_t bytes = it->second.bytes;
    ages_.erase(it->second.age);
    tables_.erase(it);
    retained_ -= bytes;
    return bytes;
  }

  std::size_t DropOldestLocked() {
    return DropLocked(tables_.find(*ages_.front()));
  }

  /// Drops every table no member may still ask for.
  void DropSettledLocked() {
    std::size_t freed = 0;
    for (auto it = tables_.begin(); it != tables_.end();) {
      const auto next = std::next(it);
      if (Pending(it->second) == 0) freed += DropLocked(it);
      it = next;
    }
    if (freed > 0) manager_.Release(cache_id_, freed);
  }

  /// Charged bytes of a table of `n` rows of `k` neighbours.
  static std::size_t TableBytes(int n, int k, const Subspace& subspace) {
    const std::size_t index_bytes =
        n <= 65535 ? sizeof(std::uint16_t) : sizeof(std::uint32_t);
    return static_cast<std::size_t>(n) * k * index_bytes +
           kTableOverheadBytes + subspace.size() * sizeof(FeatureId);
  }

  /// Charges `bytes` for a table about to be swept, dropping the oldest
  /// tables while over the cap; false when the cap or the manager's free
  /// budget has no room.
  bool ReserveLocked(std::size_t bytes) {
    std::size_t freed = 0;
    while (retained_ + bytes > cap_bytes_ && !ages_.empty()) {
      freed += DropOldestLocked();
    }
    if (freed > 0) manager_.Release(cache_id_, freed);
    return retained_ + bytes <= cap_bytes_ &&
           manager_.TryReserve(cache_id_, bytes);
  }

  /// Keeps `rows`, swept for `self` into `bytes` reserved by
  /// `ReserveLocked`, while another member may still ask for them; returns
  /// the reservation otherwise.
  void StoreLocked(const Subspace& subspace, KnnRows rows, std::uint64_t self,
                   std::size_t bytes) {
    std::uint64_t taken = self;
    const auto it = tables_.find(subspace);
    if (it != tables_.end()) {
      // Stored meanwhile by another member, or too short for this one.
      Table& table = it->second;
      table.taken |= self;
      taken = table.taken;
      if (Pending(table) != 0 && table.rows->k >= rows.k) {
        manager_.Release(cache_id_, bytes);  // The stored table serves.
        return;
      }
      manager_.Release(cache_id_, DropLocked(it));
    }
    if ((consumers_ & ~taken) == 0) {
      manager_.Release(cache_id_, bytes);
      return;
    }
    const auto [stored, inserted] = tables_.emplace(subspace, Table{});
    SUBEX_CHECK(inserted);
    stored->second.rows = std::make_shared<const KnnRows>(std::move(rows));
    stored->second.taken = taken;
    stored->second.bytes = bytes;
    stored->second.age = ages_.insert(ages_.end(), &stored->first);
    retained_ += bytes;
  }

  // MemReclaimer: a table is worth less than any score vector, so a
  // pressure pass takes every table before it touches another cache.
  std::uint64_t OldestEvictableTick() override {
    std::lock_guard<std::mutex> lock(mutex_);
    return tables_.empty() ? UINT64_MAX : 0;
  }

  std::size_t ReclaimBytes(std::size_t target_bytes) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t freed = 0;
    std::uint64_t dropped = 0;
    while (freed < target_bytes && !ages_.empty()) {
      freed += DropOldestLocked();
      ++dropped;
    }
    if (dropped > 0) manager_.ReleaseEvicted(cache_id_, freed, dropped);
    return freed;
  }

  const Dataset& data_;
  EvictionManager& manager_;
  const EvictionManager::CacheId cache_id_;

  mutable std::mutex mutex_;
  std::array<Role, kMaxMembers> roles_{};  // All kFree.
  std::uint64_t consumers_ = 0;  // Members in role kUnknown or kKnn.
  int max_k_ = 0;                // Largest clamped k any member asked for.
  std::size_t cap_bytes_ = 0;
  std::size_t retained_ = 0;
  TableMap tables_;
  std::list<const Subspace*> ages_;  // Keys of tables_, oldest first.
};

namespace {

using ScopeKey = std::pair<const Dataset*, EvictionManager*>;

/// Live scopes by (dataset, manager). Members are created and destroyed
/// under this mutex, so a scope's use count changes only while it is held.
std::mutex& ScopesMutex() {
  static std::mutex* mutex = new std::mutex();
  return *mutex;
}

std::map<ScopeKey, std::weak_ptr<KnnShareScope>>& Scopes() {
  static auto* scopes = new std::map<ScopeKey, std::weak_ptr<KnnShareScope>>();
  return *scopes;
}

}  // namespace

KnnShareMember::KnnShareMember(const Dataset& data, EvictionManager& manager,
                               std::size_t cap_bytes) {
  std::lock_guard<std::mutex> lock(ScopesMutex());
  std::weak_ptr<KnnShareScope>& entry = Scopes()[{&data, &manager}];
  scope_ = entry.lock();
  if (scope_ == nullptr) {
    scope_ = std::make_shared<KnnShareScope>(data, manager);
    entry = scope_;
  }
  slot_ = scope_->Join(cap_bytes);
}

KnnShareMember::~KnnShareMember() {
  if (slot_ >= 0) scope_->Leave(slot_);
  std::lock_guard<std::mutex> lock(ScopesMutex());
  if (scope_.use_count() == 1) {
    Scopes().erase({&scope_->data(), &scope_->manager()});
  }
  scope_.reset();
}

std::size_t KnnShareMember::retained_bytes() const {
  return scope_->retained_bytes();
}

KnnShareBinding::KnnShareBinding(KnnShareMember* member)
    : member_(member != nullptr && member->slot_ >= 0 ? member : nullptr),
      previous_(t_binding) {
  t_binding = this;
}

KnnShareBinding::~KnnShareBinding() { t_binding = previous_; }

void KnnShareBinding::Completed() {
  if (member_ != nullptr && !asked_) {
    member_->scope_->NoteNoKnn(member_->slot_);
  }
}

bool TakeSharedKnn(const Dataset& data, const Subspace& subspace, int k,
                   KnnTable* out) {
  KnnShareBinding* binding = t_binding;
  if (binding == nullptr || binding->member_ == nullptr) return false;
  KnnShareMember& member = *binding->member_;
  if (&member.scope_->data() != &data) return false;
  binding->asked_ = true;
  *out = member.scope_->Take(member.slot_, subspace, k);
  return true;
}

}  // namespace subex
