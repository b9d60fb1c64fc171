#include "net/shard_routing.h"

namespace prord::net {

ShardRoutingCore::ShardRoutingCore(std::uint32_t shard,
                                   LoadGossipBoard& board,
                                   LiveRouter& router,
                                   GossipOptions options)
    : shard_(shard), board_(board), router_(router), options_(options) {
  if (options_.interval_us <= 0) options_.interval_us = 1;
  if (options_.staleness_us <= 0) options_.staleness_us = 1;
}

void ShardRoutingCore::tick(std::int64_t now_us) {
  if (now_us < next_gossip_us_) return;
  next_gossip_us_ = now_us + options_.interval_us;
  publish_now(now_us);
  merge_now(now_us);
}

void ShardRoutingCore::publish_now(std::int64_t now_us) {
  ShardLoadSnapshot snap;
  snap.shard = shard_;
  snap.version = ++version_;
  snap.published_us = now_us;
  cluster::Cluster& cluster = router_.cluster();
  snap.backends = cluster.size() < kMaxGossipBackends ? cluster.size()
                                                      : kMaxGossipBackends;
  for (std::uint32_t b = 0; b < snap.backends; ++b)
    snap.inflight[b] = cluster.backend(b).local_load();
  const core::RoutingCore& core = router_.core();
  snap.routed = core.routed();
  snap.dispatches = core.dispatches();
  snap.handoffs = core.handoffs();
  snap.forwards = core.forwards();
  board_.publish(shard_, snap);
  ++stats_.publishes;
}

void ShardRoutingCore::merge_now(std::int64_t now_us) {
  cluster::Cluster& cluster = router_.cluster();
  const std::uint32_t backends = cluster.size() < kMaxGossipBackends
                                     ? cluster.size()
                                     : kMaxGossipBackends;
  std::uint32_t skipped = 0;
  const std::array<std::uint32_t, kMaxGossipBackends> external =
      board_.merged_external(shard_, backends, now_us, options_, &skipped);
  for (std::uint32_t b = 0; b < backends; ++b)
    cluster.backend(b).set_external_load(external[b]);
  ++stats_.merges;
  stats_.peers_skipped += skipped;
  stats_.peers_merged += board_.shards() - 1 - skipped;
}

}  // namespace prord::net
