// Lock-free load gossip between front-end distributor shards.
//
// Each shard periodically publishes a fixed-size snapshot of its *local*
// view — per-backend in-flight counts plus its routing-core commit
// counters — and reads every peer's latest snapshot to recompute the
// "external load" it folds into its belief model. No request ever takes a
// cross-shard lock: publication reuses the double-buffer idea from
// adapt::ModelSwap, but with the mutex replaced by a per-slot seqlock
// whose payload is stored as relaxed std::atomic words, so concurrent
// publish/read is race-free by construction (and clean under TSan, which
// would rightly flag a plain-memcpy seqlock).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

namespace prord::net {

/// Fixed upper bound on backends carried in a gossip snapshot. Snapshots
/// are fixed-layout atomic word arrays, so this is a hard compile-time
/// cap; the paper's cluster is 8 nodes and the live harness tops out well
/// below this.
inline constexpr std::uint32_t kMaxGossipBackends = 32;

/// One shard's published view. `version` starts at 1 on first publish
/// (0 == never published); `published_us` is on the run-wide monotonic
/// clock shared by all shards so readers can age-decay it.
struct ShardLoadSnapshot {
  std::uint32_t shard = 0;
  std::uint32_t backends = 0;
  std::uint64_t version = 0;
  std::int64_t published_us = 0;
  /// Requests this shard alone has in flight per backend (local_load(),
  /// never the merged load — see BackendServer::local_load).
  std::array<std::uint32_t, kMaxGossipBackends> inflight{};
  // Routing-core commit counters, carried so the /metrics aggregator can
  // report per-shard routing totals without touching another shard's
  // (non-atomic) RoutingCore.
  std::uint64_t routed = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t forwards = 0;
};

/// Gossip cadence and staleness horizon.
struct GossipOptions {
  /// How often each shard publishes + merges (checked on its event-loop
  /// tick, so the effective floor is the epoll timeout).
  std::int64_t interval_us = 2000;
  /// Snapshots older than this contribute nothing; younger ones are
  /// linearly decayed (see gossip_decay_num). Should be a small multiple
  /// of interval_us: long enough to ride out a busy peer's late publish,
  /// short enough that a stalled shard's claimed load drains away.
  std::int64_t staleness_us = 100000;
};

/// Linear staleness decay, as an integer numerator over `staleness_us`:
/// returns staleness_us at age 0, 0 at age >= staleness_us, decreasing
/// monotonically in between. Integer so that merged loads are exactly
/// order-independent (no float association effects).
inline std::int64_t gossip_decay_num(std::int64_t age_us,
                                     std::int64_t staleness_us) noexcept {
  if (age_us < 0) age_us = 0;  // peer clock read raced ahead of ours
  return age_us >= staleness_us ? 0 : staleness_us - age_us;
}

/// Recomputes the external (peer-shard) load per backend from a set of
/// snapshots: for every snapshot not from `self_shard` and published
/// (version > 0), adds inflight * decay / staleness. Pure function of its
/// inputs — idempotent (same inputs, same output) and order-independent
/// (integer sum over snapshots).
std::array<std::uint32_t, kMaxGossipBackends> merge_external_load(
    std::span<const ShardLoadSnapshot> snapshots, std::uint32_t self_shard,
    std::uint32_t backends, std::int64_t now_us, const GossipOptions& options);

/// One seqlocked double-buffered slot per shard. Exactly one writer per
/// slot (the owning shard's event-loop thread); any thread may read any
/// slot. publish() is wait-free; read() retries only if it races a
/// publish to the same buffer (the writer alternates buffers, so a reader
/// loses at most against two back-to-back publishes).
class LoadGossipBoard {
 public:
  explicit LoadGossipBoard(std::uint32_t shards);

  std::uint32_t shards() const noexcept { return shards_; }

  /// Publishes `snap` to `shard`'s slot. Caller must be the slot's single
  /// writer. snap.version must increase monotonically per shard.
  void publish(std::uint32_t shard, const ShardLoadSnapshot& snap) noexcept;

  /// Loads the latest consistent snapshot of `shard`'s slot into `out`.
  /// Returns false if the shard never published or the read kept tearing
  /// (bounded retries; the caller just uses its previous merge).
  bool read(std::uint32_t shard, ShardLoadSnapshot& out) const noexcept;

  /// read() over all slots except `self_shard`, then merge_external_load.
  /// `torn` (optional) counts slots skipped due to read failure.
  std::array<std::uint32_t, kMaxGossipBackends> merged_external(
      std::uint32_t self_shard, std::uint32_t backends, std::int64_t now_us,
      const GossipOptions& options, std::uint32_t* torn = nullptr) const;

 private:
  // Snapshot encoded as 64-bit words: header (shard, backends, version,
  // published_us), 32 inflight words, 4 counter words.
  static constexpr std::size_t kHeaderWords = 4;
  static constexpr std::size_t kCounterWords = 4;
  static constexpr std::size_t kWords =
      kHeaderWords + kMaxGossipBackends + kCounterWords;

  struct Buffer {
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };
  struct Slot {
    std::atomic<std::uint32_t> active{0};
    Buffer buffers[2];
  };

  std::unique_ptr<Slot[]> slots_;
  std::uint32_t shards_;
};

}  // namespace prord::net
