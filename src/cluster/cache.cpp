#include "cluster/cache.h"

#include <algorithm>
#include <stdexcept>

namespace prord::cluster {

MemoryCache::MemoryCache(std::uint64_t demand_capacity,
                         std::uint64_t pinned_capacity,
                         DemandEviction eviction)
    : eviction_(eviction),
      demand_capacity_(demand_capacity),
      pinned_capacity_(pinned_capacity) {
  if (demand_capacity == 0)
    throw std::invalid_argument("MemoryCache: zero demand capacity");
}

double MemoryCache::gdsf_priority(const Entry& e) const {
  // H = L + F * cost/size with cost 1 per object; size in KB so the
  // frequency and size terms have comparable magnitude.
  const double size_kb =
      std::max(1.0, static_cast<double>(e.bytes) / 1024.0);
  return gdsf_clock_ + e.freq / size_kb;
}

void MemoryCache::gdsf_touch(LruList::iterator it) {
  gdsf_index_.erase({it->priority, it->file});
  it->freq += 1.0;
  it->priority = gdsf_priority(*it);
  gdsf_index_.insert({it->priority, it->file});
}

bool MemoryCache::place(trace::FileId file, LruList::iterator it) {
  if (file > trace::kMaxDenseFileId) return false;
  if (file >= index_.size()) index_.resize(std::size_t{file} + 1);
  index_[file] = Slot{it, true};
  ++files_;
  return true;
}

void MemoryCache::unplace(trace::FileId file) noexcept {
  index_[file].present = false;
  --files_;
}

bool MemoryCache::lookup(trace::FileId file) {
  const Slot* slot = find(file);
  if (!slot) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (slot->it->pinned) {
    pinned_lru_.splice(pinned_lru_.begin(), pinned_lru_, slot->it);
  } else if (eviction_ == DemandEviction::kGdsf) {
    gdsf_touch(slot->it);
  } else {
    demand_lru_.splice(demand_lru_.begin(), demand_lru_, slot->it);
  }
  return true;
}

bool MemoryCache::contains(trace::FileId file) const {
  return file < index_.size() && index_[file].present;
}

void MemoryCache::evict_lru(LruList& lru, std::uint64_t& used,
                            std::uint64_t capacity, std::uint64_t needed,
                            std::uint64_t& evictions,
                            std::vector<trace::FileId>* evicted) {
  while (used + needed > capacity && !lru.empty()) {
    const Entry& victim = lru.back();
    if (evicted) evicted->push_back(victim.file);
    used -= victim.bytes;
    unplace(victim.file);
    lru.pop_back();
    ++evictions;
  }
}

void MemoryCache::evict_gdsf(std::uint64_t needed,
                             std::vector<trace::FileId>* evicted) {
  while (demand_bytes_ + needed > demand_capacity_ && !gdsf_index_.empty()) {
    const auto [priority, file] = *gdsf_index_.begin();
    if (evicted) evicted->push_back(file);
    gdsf_index_.erase(gdsf_index_.begin());
    gdsf_clock_ = priority;  // inflation: future entries outrank the dead
    const LruList::iterator victim = find(file)->it;
    demand_bytes_ -= victim->bytes;
    demand_lru_.erase(victim);
    unplace(file);
    ++stats_.demand_evictions;
  }
}

void MemoryCache::insert_demand(trace::FileId file, std::uint64_t bytes,
                                std::vector<trace::FileId>* evicted) {
  // Streamed, never cached.
  if (bytes > demand_capacity_ || file > trace::kMaxDenseFileId) return;
  if (const Slot* slot = find(file)) {
    // Already resident (e.g. pinned while the miss was in flight).
    if (slot->it->pinned) {
      pinned_lru_.splice(pinned_lru_.begin(), pinned_lru_, slot->it);
    } else if (eviction_ == DemandEviction::kGdsf) {
      gdsf_touch(slot->it);
    } else {
      demand_lru_.splice(demand_lru_.begin(), demand_lru_, slot->it);
    }
    return;
  }
  if (eviction_ == DemandEviction::kGdsf)
    evict_gdsf(bytes, evicted);
  else
    evict_lru(demand_lru_, demand_bytes_, demand_capacity_, bytes,
              stats_.demand_evictions, evicted);

  demand_lru_.push_front(Entry{file, bytes, false, 1.0, 0.0});
  demand_bytes_ += bytes;
  place(file, demand_lru_.begin());
  if (eviction_ == DemandEviction::kGdsf) {
    auto entry = demand_lru_.begin();
    entry->priority = gdsf_priority(*entry);
    gdsf_index_.insert({entry->priority, file});
  }
}

bool MemoryCache::insert_pinned(trace::FileId file, std::uint64_t bytes) {
  if (pinned_capacity_ == 0 || bytes > pinned_capacity_ ||
      file > trace::kMaxDenseFileId)
    return false;
  if (const Slot* slot = find(file)) {
    const LruList::iterator it = slot->it;
    if (it->pinned) {
      pinned_lru_.splice(pinned_lru_.begin(), pinned_lru_, it);
      return true;
    }
    // Upgrade from demand to pinned: remove demand copy first.
    if (eviction_ == DemandEviction::kGdsf)
      gdsf_index_.erase({it->priority, file});
    demand_bytes_ -= it->bytes;
    demand_lru_.erase(it);
    unplace(file);
  }
  evict_lru(pinned_lru_, pinned_bytes_, pinned_capacity_, bytes,
            stats_.pinned_evictions, nullptr);
  pinned_lru_.push_front(Entry{file, bytes, true, 1.0, 0.0});
  pinned_bytes_ += bytes;
  place(file, pinned_lru_.begin());
  return true;
}

void MemoryCache::erase(trace::FileId file) {
  const Slot* slot = find(file);
  if (!slot) return;
  const LruList::iterator it = slot->it;
  if (it->pinned) {
    pinned_bytes_ -= it->bytes;
    pinned_lru_.erase(it);
  } else {
    if (eviction_ == DemandEviction::kGdsf)
      gdsf_index_.erase({it->priority, file});
    demand_bytes_ -= it->bytes;
    demand_lru_.erase(it);
  }
  unplace(file);
}

void MemoryCache::erase_pinned(trace::FileId file) {
  const Slot* slot = find(file);
  if (!slot || !slot->it->pinned) return;
  pinned_bytes_ -= slot->it->bytes;
  pinned_lru_.erase(slot->it);
  unplace(file);
}

void MemoryCache::clear() {
  demand_lru_.clear();
  pinned_lru_.clear();
  for (Slot& slot : index_) slot.present = false;
  files_ = 0;
  gdsf_index_.clear();
  demand_bytes_ = 0;
  pinned_bytes_ = 0;
}

}  // namespace prord::cluster
