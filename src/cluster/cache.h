// Back-end memory cache.
//
// Two regions, as in the paper's memory model:
//   - demand region: LRU over files loaded on cache misses,
//   - pinned region: files placed proactively (prefetch, replication),
//     managed by its own LRU so stale proactive content ages out.
// A file lives in at most one region; proactive placement of a file that is
// already demand-cached upgrades/refreshes it in place.
#pragma once

#include <cstdint>
#include <list>
#include <set>
#include <utility>
#include <vector>

#include "trace/log_record.h"

namespace prord::cluster {

/// Demand-region replacement policy.
///
/// kLru is the classic web-server page cache. kGdsf is
/// Greedy-Dual-Size-Frequency (Cherkasova [30], extended by the paper's
/// reference [20]): victim = argmin H, with
///     H = L + frequency * cost / size
/// where L is the inflation clock (raised to each victim's H) and cost is
/// a per-KB retrieval estimate. GDSF prefers keeping small, hot, expensive
/// objects — a better fit than LRU when file sizes vary wildly.
enum class DemandEviction : std::uint8_t { kLru, kGdsf };

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t demand_evictions = 0;
  std::uint64_t pinned_evictions = 0;

  double hit_rate() const noexcept {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

class MemoryCache {
 public:
  /// Capacities in bytes. The pinned region is carved out of the same
  /// physical memory but accounted separately.
  MemoryCache(std::uint64_t demand_capacity, std::uint64_t pinned_capacity,
              DemandEviction eviction = DemandEviction::kLru);

  DemandEviction eviction_policy() const noexcept { return eviction_; }

  /// Look up a file on a request path: updates LRU order and hit/miss
  /// stats. Returns true on hit (either region).
  bool lookup(trace::FileId file);

  /// Non-mutating presence probe (no stats, no LRU update).
  bool contains(trace::FileId file) const;

  /// Inserts after a demand miss. Evicts LRU demand entries as needed,
  /// appending each victim to `evicted` (oldest first) when it is given.
  /// Files larger than the demand capacity are not cached (streamed), nor
  /// are ids above trace::kMaxDenseFileId.
  void insert_demand(trace::FileId file, std::uint64_t bytes,
                     std::vector<trace::FileId>* evicted = nullptr);

  /// Proactive placement into the pinned region (prefetch/replication).
  /// Returns false (and places nothing) if bytes exceed pinned capacity.
  bool insert_pinned(trace::FileId file, std::uint64_t bytes);

  /// Drops a file from whichever region holds it.
  void erase(trace::FileId file);

  /// Drops a file only if it sits in the pinned region (replication
  /// retraction must not evict demand-cached copies).
  void erase_pinned(trace::FileId file);

  /// Drops everything (e.g. cache-size sweep reconfiguration).
  void clear();

  std::uint64_t demand_bytes() const noexcept { return demand_bytes_; }
  std::uint64_t pinned_bytes() const noexcept { return pinned_bytes_; }
  std::uint64_t demand_capacity() const noexcept { return demand_capacity_; }
  std::uint64_t pinned_capacity() const noexcept { return pinned_capacity_; }
  std::size_t num_files() const noexcept { return files_; }

  const CacheStats& stats() const noexcept { return stats_; }

  /// Zeroes hit/miss/eviction counters without touching cache contents
  /// (used when a warm-up phase ends and measurement begins).
  void reset_stats() noexcept { stats_ = CacheStats{}; }

 private:
  struct Entry {
    trace::FileId file;
    std::uint64_t bytes;
    bool pinned;
    double freq = 1.0;      // GDSF access count
    double priority = 0.0;  // GDSF H value
  };
  using LruList = std::list<Entry>;
  /// Where a resident file's entry sits; `present` is false otherwise.
  struct Slot {
    LruList::iterator it{};
    bool present = false;
  };

  /// The resident file's slot, or null.
  Slot* find(trace::FileId file) noexcept {
    return file < index_.size() && index_[file].present ? &index_[file]
                                                        : nullptr;
  }
  /// Marks `file` resident at `it`; false (nothing stored) for ids above
  /// trace::kMaxDenseFileId.
  bool place(trace::FileId file, LruList::iterator it);
  void unplace(trace::FileId file) noexcept;

  void evict_lru(LruList& lru, std::uint64_t& used, std::uint64_t capacity,
                 std::uint64_t needed, std::uint64_t& evictions,
                 std::vector<trace::FileId>* evicted);
  void evict_gdsf(std::uint64_t needed, std::vector<trace::FileId>* evicted);
  double gdsf_priority(const Entry& e) const;
  void gdsf_touch(LruList::iterator it);

  DemandEviction eviction_;
  std::uint64_t demand_capacity_;
  std::uint64_t pinned_capacity_;
  std::uint64_t demand_bytes_ = 0;
  std::uint64_t pinned_bytes_ = 0;
  LruList demand_lru_;  // front = most recent (LRU mode); storage (GDSF)
  LruList pinned_lru_;
  std::vector<Slot> index_;  // indexed by FileId
  std::size_t files_ = 0;    // resident files
  // GDSF victim index: (priority, file) ordered ascending.
  std::set<std::pair<double, trace::FileId>> gdsf_index_;
  double gdsf_clock_ = 0.0;  // inflation clock L
  CacheStats stats_;
};

}  // namespace prord::cluster
