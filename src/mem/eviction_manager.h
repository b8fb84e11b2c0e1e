#ifndef SUBEX_MEM_EVICTION_MANAGER_H_
#define SUBEX_MEM_EVICTION_MANAGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace subex {

/// Implemented by every cache the `EvictionManager` governs. The manager
/// calls these during a pressure pass — never while holding its own
/// accounting mutex, so implementations are free to take their internal
/// locks and to call `Release`/`ReleaseEvicted` re-entrantly.
class MemReclaimer {
 public:
  virtual ~MemReclaimer() = default;

  /// Manager tick of the cache's least recently used *evictable* (resident,
  /// unpinned) entry, or UINT64_MAX when nothing can be freed. The manager
  /// reclaims from the cache whose tail is globally oldest first, which
  /// approximates one process-wide LRU without cross-cache lock coupling.
  virtual std::uint64_t OldestEvictableTick() = 0;

  /// Frees least-recently-used unpinned entries until at least
  /// `target_bytes` are released or nothing evictable remains; returns the
  /// bytes actually freed. The implementation reports the freed bytes back
  /// through `ReleaseEvicted`.
  virtual std::size_t ReclaimBytes(std::size_t target_bytes) = 0;
};

/// Per-cache slice of an `EvictionManagerSnapshot`.
struct MemCacheStats {
  std::string name;
  std::size_t quota_bytes = 0;     ///< 0 = no dedicated quota.
  std::size_t resident_bytes = 0;  ///< Charged bytes, pinned included.
  std::size_t pinned_bytes = 0;    ///< Bytes currently pinned (unevictable).
  std::uint64_t pinned_count = 0;  ///< Entries currently pinned.
  std::uint64_t evictions = 0;     ///< Cumulative entries evicted.
  std::uint64_t reclaim_calls = 0;  ///< Pressure passes that asked this cache.

  std::string ToJson() const;
};

/// Point-in-time view of the manager: global budget/usage plus one
/// `MemCacheStats` per registered cache.
struct EvictionManagerSnapshot {
  std::size_t budget_bytes = 0;
  std::size_t used_bytes = 0;
  std::uint64_t reserve_calls = 0;
  std::uint64_t reclaim_passes = 0;    ///< Reserves that triggered pressure.
  std::uint64_t reserve_failures = 0;  ///< Non-overcommit reserves refused.
  std::uint64_t overcommits = 0;       ///< Must-succeed reserves over budget.
  std::vector<MemCacheStats> caches;

  /// `{"budget_bytes":...,"used_bytes":...,...,"caches":{name:{...}}}` —
  /// the shape the `kStats` endpoint nests under "mem".
  std::string ToJson() const;
};

/// Knobs of an `EvictionManager`.
struct EvictionManagerOptions {
  /// Global byte budget across all registered caches.
  std::size_t budget_bytes = 512ull << 20;
};

/// Process-wide memory governor: one byte budget shared by every registered
/// cache, per-cache quotas, and pressure callbacks that evict
/// least-recently-used entries across caches when a reservation would
/// exceed either bound.
///
/// Protocol for a governed cache:
///  * `Register` once with a display name, optional quota and a
///    `MemReclaimer`; `Unregister` on destruction.
///  * Call `Reserve` BEFORE taking internal locks for an entry about to be
///    retained; on `false`, do not retain it. Reservations are charged
///    up-front, so accounting is conservative under concurrency.
///  * Call `Release` when entries are dropped outside a pressure pass and
///    `ReleaseEvicted` for entries freed by `ReclaimBytes`.
///  * Stamp entries with `NextTick()` on every touch — ticks are the
///    unified recency clock that orders eviction across caches.
///  * `NotePin`/`NoteUnpin` keep the pinned-byte gauge honest; pinned
///    entries must be skipped by the cache's own `ReclaimBytes`.
///
/// Reserve with `allow_overcommit = true` never fails: when even a pressure
/// pass cannot make room (everything pinned), the reservation goes through
/// and is counted as an overcommit — callers use this for chunk loads whose
/// compute cannot proceed without the data; the budget then bounds the
/// *unpinned* resident set while the pinned working set stays small by
/// construction.
///
/// Lock order: the accounting mutex is a leaf (never held while calling
/// into a reclaimer); a separate pressure mutex serializes reclaim passes
/// with each other and with `Unregister`, so a reclaimer is never invoked
/// after its cache unregistered.
class EvictionManager {
 public:
  /// Registration handle; 0 is never a valid id.
  using CacheId = std::size_t;

  using Options = EvictionManagerOptions;

  /// The process-wide manager the serving stack registers with (512 MB
  /// default budget; benches and tools resize it via `SetBudget`).
  static EvictionManager& Global();

  explicit EvictionManager(const Options& options = {});
  ~EvictionManager();

  EvictionManager(const EvictionManager&) = delete;
  EvictionManager& operator=(const EvictionManager&) = delete;

  /// Registers a cache. `quota_bytes` of 0 means only the global budget
  /// binds. `reclaimer` may be null for a cache that cannot shed load (it
  /// is then skipped by pressure passes). Display names need not be unique.
  CacheId Register(std::string name, std::size_t quota_bytes,
                   MemReclaimer* reclaimer);

  /// Removes the cache and un-charges whatever it still had reserved.
  void Unregister(CacheId id);

  /// Monotonic recency clock shared by every governed cache.
  std::uint64_t NextTick() {
    return tick_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Charges `bytes` to `id`. When the charge pushes the cache over its
  /// quota or the process over the global budget, runs a pressure pass
  /// (self-reclaim for quota, globally-LRU reclaim for budget). Returns
  /// false — with the charge rolled back — if the overage persists and
  /// `allow_overcommit` is false.
  bool Reserve(CacheId id, std::size_t bytes, bool allow_overcommit = false);

  /// Charges `bytes` to `id` only if the cache's quota and the global
  /// budget both have room for them now. Never runs a pressure pass, so it
  /// never evicts anything: for entries worth less than any other cache's,
  /// which must not displace them. Returns false, charging nothing,
  /// otherwise.
  bool TryReserve(CacheId id, std::size_t bytes);

  /// Un-charges `bytes` dropped by the cache itself (overwrite, clear).
  void Release(CacheId id, std::size_t bytes);

  /// Un-charges `bytes` freed as `entries` evictions (from the cache's own
  /// LRU enforcement or a pressure pass) and bumps eviction counters.
  void ReleaseEvicted(CacheId id, std::size_t bytes, std::uint64_t entries);

  /// Accounts an entry of `bytes` becoming pinned / unpinned.
  void NotePin(CacheId id, std::size_t bytes);
  void NoteUnpin(CacheId id, std::size_t bytes);

  /// Rebudgets at runtime (bench sweeps); shrinking triggers an immediate
  /// pressure pass.
  void SetBudget(std::size_t budget_bytes);

  std::size_t budget_bytes() const;
  std::size_t used_bytes() const;

  EvictionManagerSnapshot snapshot() const;

 private:
  struct CacheEntry {
    std::string name;
    std::size_t quota_bytes = 0;
    MemReclaimer* reclaimer = nullptr;
    bool alive = false;
    std::size_t resident_bytes = 0;
    std::size_t pinned_bytes = 0;
    std::uint64_t pinned_count = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reclaim_calls = 0;
  };

  /// Global overage right now (0 when within budget). Caller holds mutex_.
  std::size_t GlobalDeficitLocked() const {
    return used_ > budget_ ? used_ - budget_ : 0;
  }

  /// Runs reclaimers until the global budget and `id`'s quota are met or no
  /// progress is possible. Takes pressure_mutex_; must be called without
  /// mutex_ held. Returns true when both constraints ended satisfied.
  bool PressurePass(CacheId id);

  mutable std::mutex mutex_;        // Accounting: caches_, used_, counters.
  std::mutex pressure_mutex_;       // Serializes reclaim passes/unregister.
  std::vector<std::unique_ptr<CacheEntry>> caches_;  // index = id - 1.
  std::size_t budget_ = 0;
  /// Global-registry instruments (looked up once; obs may compile them out).
  class Gauge* used_gauge_ = nullptr;
  class Gauge* budget_gauge_ = nullptr;
  class Counter* evictions_counter_ = nullptr;
  std::size_t used_ = 0;
  std::uint64_t reserve_calls_ = 0;
  std::uint64_t reclaim_passes_ = 0;
  std::uint64_t reserve_failures_ = 0;
  std::uint64_t overcommits_ = 0;
  std::atomic<std::uint64_t> tick_{1};
};

}  // namespace subex

#endif  // SUBEX_MEM_EVICTION_MANAGER_H_
