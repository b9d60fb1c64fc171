// Reference model for the worker-cache equivalence tests.
//
// The live BackendWorker's original private cache: a byte-capacity LRU
// kept as a std::list of FileIds (front = most recent) plus an
// unordered_map from FileId to its size and list position. A file larger
// than the capacity is streamed and never cached; inserting a resident
// file only refreshes it. tests/cluster/cache_test.cpp drives
// cluster::MemoryCache(capacity, 0) against it operation for operation,
// and tests/net/worker_cache_test.cpp checks a live worker's residency
// against it.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "trace/log_record.h"

namespace prord::test_support {

class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint64_t capacity) : capacity_(capacity) {}

  /// Hit: moves `file` to the front. Miss: changes nothing.
  bool lookup(trace::FileId file) {
    auto it = cache_.find(file);
    if (it == cache_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;
  }

  bool contains(trace::FileId file) const { return cache_.contains(file); }

  /// Caches `file` at the front, evicting from the back until it fits;
  /// each victim is appended to `evicted`, oldest first.
  void insert(trace::FileId file, std::uint64_t bytes,
              std::vector<trace::FileId>& evicted) {
    if (bytes > capacity_) return;  // streamed, never cached
    if (lookup(file)) return;
    while (cached_bytes_ + bytes > capacity_ && !lru_.empty()) {
      const trace::FileId victim = lru_.back();
      lru_.pop_back();
      auto vit = cache_.find(victim);
      cached_bytes_ -= vit->second.bytes;
      cache_.erase(vit);
      evicted.push_back(victim);
    }
    lru_.push_front(file);
    cache_.emplace(file, Entry{bytes, lru_.begin()});
    cached_bytes_ += bytes;
  }

  std::uint64_t bytes() const noexcept { return cached_bytes_; }
  std::size_t size() const noexcept { return cache_.size(); }
  /// Resident files, most recent first.
  std::vector<trace::FileId> order() const {
    return {lru_.begin(), lru_.end()};
  }

 private:
  struct Entry {
    std::uint64_t bytes;
    std::list<trace::FileId>::iterator lru_it;
  };

  std::uint64_t capacity_;
  std::list<trace::FileId> lru_;  ///< front = most recent
  std::unordered_map<trace::FileId, Entry> cache_;
  std::uint64_t cached_bytes_ = 0;
};

}  // namespace prord::test_support
