#include "mem/eviction_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "fault/fault.h"
#include "obs/event_log.h"
#include "obs/registry.h"

namespace subex {

namespace {

/// Pressure passes re-derive deficits after every reclaimer call, so this
/// bound only cuts off pathological no-progress loops.
constexpr int kMaxPressureRounds = 64;

}  // namespace

std::string MemCacheStats::ToJson() const {
  return JsonObject()
      .Add("quota_bytes", static_cast<std::uint64_t>(quota_bytes))
      .Add("resident_bytes", static_cast<std::uint64_t>(resident_bytes))
      .Add("pinned_bytes", static_cast<std::uint64_t>(pinned_bytes))
      .Add("pinned_count", pinned_count)
      .Add("evictions", evictions)
      .Add("reclaim_calls", reclaim_calls)
      .Build();
}

std::string EvictionManagerSnapshot::ToJson() const {
  JsonObject cache_obj;
  for (const MemCacheStats& cache : caches) {
    cache_obj.AddRaw(cache.name, cache.ToJson());
  }
  return JsonObject()
      .Add("budget_bytes", static_cast<std::uint64_t>(budget_bytes))
      .Add("used_bytes", static_cast<std::uint64_t>(used_bytes))
      .Add("reserve_calls", reserve_calls)
      .Add("reclaim_passes", reclaim_passes)
      .Add("reserve_failures", reserve_failures)
      .Add("overcommits", overcommits)
      .AddRaw("caches", cache_obj.Build())
      .Build();
}

EvictionManager& EvictionManager::Global() {
  static EvictionManager* instance = new EvictionManager();
  return *instance;
}

EvictionManager::EvictionManager(const Options& options)
    : budget_(options.budget_bytes),
      used_gauge_(&MetricsRegistry::Global().GetGauge("mem.used_bytes")),
      budget_gauge_(&MetricsRegistry::Global().GetGauge("mem.budget_bytes")),
      evictions_counter_(
          &MetricsRegistry::Global().GetCounter("mem.evictions")) {
  budget_gauge_->Set(static_cast<std::int64_t>(budget_));
}

EvictionManager::~EvictionManager() = default;

EvictionManager::CacheId EvictionManager::Register(std::string name,
                                                   std::size_t quota_bytes,
                                                   MemReclaimer* reclaimer) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto entry = std::make_unique<CacheEntry>();
  entry->name = std::move(name);
  entry->quota_bytes = quota_bytes;
  entry->reclaimer = reclaimer;
  entry->alive = true;
  caches_.push_back(std::move(entry));
  return caches_.size();
}

void EvictionManager::Unregister(CacheId id) {
  // Pressure lock first: once we hold it, no reclaim pass is mid-flight and
  // none can start, so the cache's reclaimer is never called again.
  std::lock_guard<std::mutex> pressure(pressure_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  SUBEX_CHECK(id >= 1 && id <= caches_.size());
  CacheEntry& entry = *caches_[id - 1];
  SUBEX_CHECK_MSG(entry.alive, "cache unregistered twice");
  used_ -= entry.resident_bytes;
  entry.resident_bytes = 0;
  entry.pinned_bytes = 0;
  entry.pinned_count = 0;
  entry.alive = false;
  entry.reclaimer = nullptr;
  used_gauge_->Set(static_cast<std::int64_t>(used_));
}

bool EvictionManager::Reserve(CacheId id, std::size_t bytes,
                              bool allow_overcommit) {
  // Injected denial models a budget that cannot be reclaimed. Overcommit
  // reservations are exempt: their contract is that they never fail.
  FaultAction fault_action;
  if (!allow_overcommit &&
      SUBEX_FAULT(FaultPoint::kMemReserve, &fault_action)) {
    std::lock_guard<std::mutex> lock(mutex_);
    SUBEX_CHECK(id >= 1 && id <= caches_.size());
    SUBEX_CHECK(caches_[id - 1]->alive);
    ++reserve_calls_;
    ++reserve_failures_;
    return false;
  }
  bool over = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SUBEX_CHECK(id >= 1 && id <= caches_.size());
    CacheEntry& entry = *caches_[id - 1];
    SUBEX_CHECK(entry.alive);
    ++reserve_calls_;
    entry.resident_bytes += bytes;
    used_ += bytes;
    over = GlobalDeficitLocked() > 0 ||
           (entry.quota_bytes > 0 && entry.resident_bytes > entry.quota_bytes);
    used_gauge_->Set(static_cast<std::int64_t>(used_));
  }
  if (!over) return true;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++reclaim_passes_;
  }
  SUBEX_EVENT(EventSeverity::kInfo, "mem.pressure_reclaim",
              JsonObject()
                  .Add("requested_bytes", static_cast<std::uint64_t>(bytes))
                  .Add("used_bytes", static_cast<std::uint64_t>(used_bytes()))
                  .Add("budget_bytes",
                       static_cast<std::uint64_t>(this->budget_bytes()))
                  .Build());
  if (PressurePass(id)) return true;

  std::lock_guard<std::mutex> lock(mutex_);
  if (allow_overcommit) {
    ++overcommits_;
    SUBEX_EVENT(EventSeverity::kWarn, "mem.overcommit",
                JsonObject()
                    .Add("requested_bytes", static_cast<std::uint64_t>(bytes))
                    .Add("used_bytes", static_cast<std::uint64_t>(used_))
                    .Add("budget_bytes", static_cast<std::uint64_t>(budget_))
                    .Build());
    return true;
  }
  CacheEntry& entry = *caches_[id - 1];
  entry.resident_bytes -= bytes;
  used_ -= bytes;
  ++reserve_failures_;
  used_gauge_->Set(static_cast<std::int64_t>(used_));
  return false;
}

bool EvictionManager::TryReserve(CacheId id, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SUBEX_CHECK(id >= 1 && id <= caches_.size());
  CacheEntry& entry = *caches_[id - 1];
  SUBEX_CHECK(entry.alive);
  ++reserve_calls_;
  const bool over_quota = entry.quota_bytes > 0 &&
                          entry.resident_bytes + bytes > entry.quota_bytes;
  if (used_ + bytes > budget_ || over_quota) {
    ++reserve_failures_;
    return false;
  }
  entry.resident_bytes += bytes;
  used_ += bytes;
  used_gauge_->Set(static_cast<std::int64_t>(used_));
  return true;
}

bool EvictionManager::PressurePass(CacheId id) {
  std::lock_guard<std::mutex> pressure(pressure_mutex_);
  for (int round = 0; round < kMaxPressureRounds; ++round) {
    std::size_t global_deficit = 0;
    std::size_t self_deficit = 0;
    MemReclaimer* self = nullptr;
    struct Candidate {
      MemReclaimer* reclaimer;
      CacheId id;
    };
    std::vector<Candidate> candidates;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      global_deficit = GlobalDeficitLocked();
      CacheEntry& entry = *caches_[id - 1];
      if (entry.quota_bytes > 0 && entry.resident_bytes > entry.quota_bytes) {
        self_deficit = entry.resident_bytes - entry.quota_bytes;
        self = entry.reclaimer;
      }
      if (global_deficit > 0) {
        for (std::size_t i = 0; i < caches_.size(); ++i) {
          if (caches_[i]->alive && caches_[i]->reclaimer != nullptr) {
            candidates.push_back(Candidate{caches_[i]->reclaimer, i + 1});
          }
        }
      }
    }
    if (global_deficit == 0 && self_deficit == 0) return true;

    std::size_t freed = 0;
    if (self_deficit > 0 && self != nullptr) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++caches_[id - 1]->reclaim_calls;
      }
      freed += self->ReclaimBytes(self_deficit);
    }
    if (global_deficit > 0) {
      // Reclaim from the cache whose evictable tail is globally oldest —
      // the unified-LRU ordering the per-entry ticks exist for.
      MemReclaimer* best = nullptr;
      CacheId best_id = 0;
      std::uint64_t best_tick = UINT64_MAX;
      for (const Candidate& candidate : candidates) {
        const std::uint64_t tick = candidate.reclaimer->OldestEvictableTick();
        if (tick < best_tick) {
          best_tick = tick;
          best = candidate.reclaimer;
          best_id = candidate.id;
        }
      }
      if (best != nullptr) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++caches_[best_id - 1]->reclaim_calls;
        }
        freed += best->ReclaimBytes(global_deficit);
      }
    }
    if (freed == 0) break;  // Everything left is pinned or empty.
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const CacheEntry& entry = *caches_[id - 1];
  return GlobalDeficitLocked() == 0 &&
         (entry.quota_bytes == 0 || entry.resident_bytes <= entry.quota_bytes);
}

void EvictionManager::Release(CacheId id, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SUBEX_CHECK(id >= 1 && id <= caches_.size());
  CacheEntry& entry = *caches_[id - 1];
  if (!entry.alive) return;  // Unregister already zeroed the accounting.
  SUBEX_CHECK(entry.resident_bytes >= bytes && used_ >= bytes);
  entry.resident_bytes -= bytes;
  used_ -= bytes;
  used_gauge_->Set(static_cast<std::int64_t>(used_));
}

void EvictionManager::ReleaseEvicted(CacheId id, std::size_t bytes,
                                     std::uint64_t entries) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SUBEX_CHECK(id >= 1 && id <= caches_.size());
    CacheEntry& entry = *caches_[id - 1];
    if (entry.alive) {
      SUBEX_CHECK(entry.resident_bytes >= bytes && used_ >= bytes);
      entry.resident_bytes -= bytes;
      used_ -= bytes;
      entry.evictions += entries;
      used_gauge_->Set(static_cast<std::int64_t>(used_));
    }
  }
  evictions_counter_->Increment(entries);
}

void EvictionManager::NotePin(CacheId id, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SUBEX_CHECK(id >= 1 && id <= caches_.size());
  CacheEntry& entry = *caches_[id - 1];
  if (!entry.alive) return;
  entry.pinned_bytes += bytes;
  ++entry.pinned_count;
}

void EvictionManager::NoteUnpin(CacheId id, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  SUBEX_CHECK(id >= 1 && id <= caches_.size());
  CacheEntry& entry = *caches_[id - 1];
  if (!entry.alive) return;
  SUBEX_CHECK(entry.pinned_bytes >= bytes && entry.pinned_count >= 1);
  entry.pinned_bytes -= bytes;
  --entry.pinned_count;
}

void EvictionManager::SetBudget(std::size_t budget_bytes) {
  bool over = false;
  CacheId any_cache = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget_bytes;
    over = GlobalDeficitLocked() > 0;
    // A pressure pass needs a cache id to evaluate quota constraints
    // against; any live cache works — only the global deficit is at stake.
    for (std::size_t i = 0; i < caches_.size() && any_cache == 0; ++i) {
      if (caches_[i]->alive) any_cache = i + 1;
    }
    budget_gauge_->Set(static_cast<std::int64_t>(budget_));
  }
  if (over && any_cache != 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++reclaim_passes_;
    }
    PressurePass(any_cache);
  }
}

std::size_t EvictionManager::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_;
}

std::size_t EvictionManager::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

EvictionManagerSnapshot EvictionManager::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EvictionManagerSnapshot snap;
  snap.budget_bytes = budget_;
  snap.used_bytes = used_;
  snap.reserve_calls = reserve_calls_;
  snap.reclaim_passes = reclaim_passes_;
  snap.reserve_failures = reserve_failures_;
  snap.overcommits = overcommits_;
  for (const auto& cache : caches_) {
    if (!cache->alive) continue;
    MemCacheStats stats;
    stats.name = cache->name;
    stats.quota_bytes = cache->quota_bytes;
    stats.resident_bytes = cache->resident_bytes;
    stats.pinned_bytes = cache->pinned_bytes;
    stats.pinned_count = cache->pinned_count;
    stats.evictions = cache->evictions;
    stats.reclaim_calls = cache->reclaim_calls;
    snap.caches.push_back(std::move(stats));
  }
  return snap;
}

}  // namespace subex
