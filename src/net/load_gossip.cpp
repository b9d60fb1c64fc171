#include "net/load_gossip.h"

namespace prord::net {

std::array<std::uint32_t, kMaxGossipBackends> merge_external_load(
    std::span<const ShardLoadSnapshot> snapshots, std::uint32_t self_shard,
    std::uint32_t backends, std::int64_t now_us,
    const GossipOptions& options) {
  std::array<std::uint32_t, kMaxGossipBackends> merged{};
  if (backends > kMaxGossipBackends) backends = kMaxGossipBackends;
  const std::int64_t horizon =
      options.staleness_us > 0 ? options.staleness_us : 1;
  for (const ShardLoadSnapshot& snap : snapshots) {
    if (snap.shard == self_shard || snap.version == 0) continue;
    const std::int64_t num =
        gossip_decay_num(now_us - snap.published_us, horizon);
    if (num == 0) continue;
    const std::uint32_t limit =
        snap.backends < backends ? snap.backends : backends;
    for (std::uint32_t b = 0; b < limit; ++b) {
      // Integer decay: floor(inflight * (horizon - age) / horizon). At
      // age 0 this is exactly the peer's published count.
      merged[b] += static_cast<std::uint32_t>(
          static_cast<std::int64_t>(snap.inflight[b]) * num / horizon);
    }
  }
  return merged;
}

LoadGossipBoard::LoadGossipBoard(std::uint32_t shards)
    : slots_(new Slot[shards > 0 ? shards : 1]),
      shards_(shards > 0 ? shards : 1) {}

void LoadGossipBoard::publish(std::uint32_t shard,
                              const ShardLoadSnapshot& snap) noexcept {
  if (shard >= shards_) return;
  Slot& slot = slots_[shard];
  const std::uint32_t next =
      1u - slot.active.load(std::memory_order_relaxed);
  Buffer& buf = slot.buffers[next];
  const std::uint64_t seq = buf.seq.load(std::memory_order_relaxed);
  buf.seq.store(seq + 1, std::memory_order_release);  // odd: write begins
  std::size_t w = 0;
  auto put = [&](std::uint64_t v) {
    buf.words[w++].store(v, std::memory_order_relaxed);
  };
  put(snap.shard);
  put(snap.backends);
  put(snap.version);
  put(static_cast<std::uint64_t>(snap.published_us));
  for (std::uint32_t b = 0; b < kMaxGossipBackends; ++b)
    put(snap.inflight[b]);
  put(snap.routed);
  put(snap.dispatches);
  put(snap.handoffs);
  put(snap.forwards);
  buf.seq.store(seq + 2, std::memory_order_release);  // even: write done
  slot.active.store(next, std::memory_order_release);
}

bool LoadGossipBoard::read(std::uint32_t shard,
                           ShardLoadSnapshot& out) const noexcept {
  if (shard >= shards_) return false;
  const Slot& slot = slots_[shard];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t idx = slot.active.load(std::memory_order_acquire);
    const Buffer& buf = slot.buffers[idx];
    const std::uint64_t s1 = buf.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // mid-publish; the writer lapped us
    std::array<std::uint64_t, kWords> words;
    for (std::size_t w = 0; w < kWords; ++w)
      words[w] = buf.words[w].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (buf.seq.load(std::memory_order_relaxed) != s1) continue;
    std::size_t w = 0;
    out.shard = static_cast<std::uint32_t>(words[w++]);
    out.backends = static_cast<std::uint32_t>(words[w++]);
    out.version = words[w++];
    out.published_us = static_cast<std::int64_t>(words[w++]);
    for (std::uint32_t b = 0; b < kMaxGossipBackends; ++b)
      out.inflight[b] = static_cast<std::uint32_t>(words[w++]);
    out.routed = words[w++];
    out.dispatches = words[w++];
    out.handoffs = words[w++];
    out.forwards = words[w++];
    return out.version > 0;
  }
  return false;
}

std::array<std::uint32_t, kMaxGossipBackends> LoadGossipBoard::merged_external(
    std::uint32_t self_shard, std::uint32_t backends, std::int64_t now_us,
    const GossipOptions& options, std::uint32_t* torn) const {
  std::array<std::uint32_t, kMaxGossipBackends> merged{};
  if (backends > kMaxGossipBackends) backends = kMaxGossipBackends;
  std::uint32_t torn_count = 0;
  ShardLoadSnapshot snap;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (s == self_shard) continue;
    if (!read(s, snap)) {
      ++torn_count;
      continue;
    }
    const std::array<std::uint32_t, kMaxGossipBackends> one =
        merge_external_load(std::span<const ShardLoadSnapshot>(&snap, 1),
                            self_shard, backends, now_us, options);
    for (std::uint32_t b = 0; b < backends; ++b) merged[b] += one[b];
  }
  if (torn) *torn = torn_count;
  return merged;
}

}  // namespace prord::net
