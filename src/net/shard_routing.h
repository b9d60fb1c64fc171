// ShardRoutingCore: one distributor shard's private routing belief plus
// its side of the load-gossip exchange.
//
// Each shard owns a full LiveRouter (policy, belief cluster, LARD
// owner tables, PRORD placement view) and never shares it. What *is*
// shared is a LoadGossipBoard slot per shard: tick() — called from the
// shard's event loop — publishes this shard's local in-flight counts and
// merges every peer's latest snapshot into the belief cluster via
// BackendServer::set_external_load. Policies keep reading plain load();
// they cannot tell gossip from local traffic, which is exactly the
// partial-view decider model the multi-cache paging papers formalize.
#pragma once

#include <cstdint>

#include "net/live_router.h"
#include "net/load_gossip.h"

namespace prord::net {

/// Per-shard gossip counters, read after the shard thread has stopped
/// (or from the shard thread itself).
struct ShardGossipStats {
  std::uint64_t publishes = 0;
  std::uint64_t merges = 0;        // merge passes applied to belief
  std::uint64_t peers_merged = 0;  // cumulative peer snapshots folded in
  std::uint64_t peers_skipped = 0; // unpublished or torn peer reads
};

class ShardRoutingCore {
 public:
  /// `board` is shared by all shards and must outlive this object;
  /// `router` is this shard's private belief and must be driven only from
  /// the shard thread.
  ShardRoutingCore(std::uint32_t shard, LoadGossipBoard& board,
                   LiveRouter& router, GossipOptions options);

  /// Event-loop hook: on gossip cadence, publish our local snapshot and
  /// fold the peers' into belief. `now_us` is the run-wide monotonic
  /// clock all shards share. Cheap no-op between intervals.
  void tick(std::int64_t now_us);

  /// Unconditional publish (used for the final flush before teardown so
  /// post-run aggregation sees every shard's last counters).
  void publish_now(std::int64_t now_us);

  std::uint32_t shard() const noexcept { return shard_; }
  const ShardGossipStats& stats() const noexcept { return stats_; }
  const GossipOptions& options() const noexcept { return options_; }

 private:
  void merge_now(std::int64_t now_us);

  std::uint32_t shard_;
  LoadGossipBoard& board_;
  LiveRouter& router_;
  GossipOptions options_;
  std::int64_t next_gossip_us_ = 0;
  std::uint64_t version_ = 0;
  ShardGossipStats stats_;
};

}  // namespace prord::net
