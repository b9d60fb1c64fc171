// ShardedFrontend: N distributor shards on one client port.
//
// Preferred path: every shard binds its own SO_REUSEPORT listener on the
// shared port and the kernel spreads incoming connections across them
// (probed at runtime — see net::reuseport_supported). Fallback path:
// shard 0 owns the only listener and round-robins accepted fds to its
// peers via Distributor::adopt_client (a clear warning, not a crash, so
// kernels without SO_REUSEPORT still run N shards).
//
// Each shard owns a private LiveRouter belief (its ShardRoutingCore)
// and the shards exchange load estimates through the lock-free
// LoadGossipBoard — no request ever takes a cross-shard lock. All shards
// share one run-wide monotonic clock (frontend t0) so gossip staleness
// decay is comparable across shards.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/distributor.h"
#include "net/live_cluster.h"
#include "net/load_gossip.h"
#include "net/shard_routing.h"

namespace prord::net {

struct ShardedFrontendOptions {
  std::uint32_t shards = 1;
  std::uint16_t port = 0;  ///< shared client port; 0 = ephemeral
  /// Try SO_REUSEPORT first; off forces the accept-handoff fallback.
  bool allow_reuseport = true;
  int listen_backlog = 1024;
  GossipOptions gossip;
  DistributorObsOptions obs;  ///< applied to every shard
  /// Optional prediction seam, applied per shard with per-shard links.
  predict::IPredictor* predictor = nullptr;
  double prefetch_min_confidence = 0.4;
  std::size_t prefetch_fanout = 2;
};

class ShardedFrontend {
 public:
  /// `routers` holds one private LiveRouter per shard (same order);
  /// routers, site and workers are borrowed and must outlive this.
  ShardedFrontend(std::vector<LiveRouter*> routers,
                  const SiteStore& site,
                  std::vector<BackendWorker*> workers,
                  ShardedFrontendOptions options);
  ~ShardedFrontend();
  ShardedFrontend(const ShardedFrontend&) = delete;
  ShardedFrontend& operator=(const ShardedFrontend&) = delete;

  /// Per-shard /metrics and /slo body factories, installed on each shard
  /// before its thread starts (so no unsynchronized provider swap races
  /// a scrape). Each factory is called once per shard with the shard id
  /// and returns that shard's provider closure. Must precede start().
  void set_providers(
      std::function<std::function<std::string()>(std::uint32_t)> metrics,
      std::function<std::function<std::string()>(std::uint32_t)> slo) {
    metrics_factory_ = std::move(metrics);
    slo_factory_ = std::move(slo);
  }

  /// Binds listeners, wires shards, starts every distributor thread.
  /// False on any setup failure (already-started shards are stopped).
  bool start();
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint32_t shards() const noexcept { return opts_.shards; }
  bool reuseport_used() const noexcept { return reuseport_used_; }
  /// Non-empty when start() fell back from SO_REUSEPORT to handoff mode.
  const std::string& fallback_reason() const noexcept {
    return fallback_reason_;
  }

  Distributor& shard(std::uint32_t i) { return *dists_[i]; }
  const Distributor& shard(std::uint32_t i) const { return *dists_[i]; }
  const LoadGossipBoard& board() const noexcept { return *board_; }
  const ShardedFrontendOptions& options() const noexcept { return opts_; }
  const std::vector<BackendWorker*>& workers() const noexcept {
    return workers_;
  }
  /// Shard `i`'s belief router and gossip counters: non-atomic state,
  /// safe from shard `i`'s own thread or after stop().
  const LiveRouter& router(std::uint32_t i) const { return *routers_[i]; }
  const ShardGossipStats& gossip_stats(std::uint32_t i) const {
    return cores_[i]->stats();
  }

  /// Microseconds since start() on the clock every shard's gossip uses.
  std::int64_t elapsed_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// Per-shard consolidated counters. Safe while live for the atomic
  /// distributor counters; the routed/gossip fields read the shard's
  /// non-atomic state and are only exact after stop().
  LiveShardSnapshot snapshot(std::uint32_t i) const;

 private:
  std::vector<LiveRouter*> routers_;
  const SiteStore& site_;
  std::vector<BackendWorker*> workers_;
  ShardedFrontendOptions opts_;

  std::function<std::function<std::string()>(std::uint32_t)> metrics_factory_;
  std::function<std::function<std::string()>(std::uint32_t)> slo_factory_;

  std::unique_ptr<LoadGossipBoard> board_;
  std::vector<std::unique_ptr<ShardRoutingCore>> cores_;
  std::vector<std::unique_ptr<Distributor>> dists_;
  std::uint16_t port_ = 0;
  bool reuseport_used_ = false;
  std::string fallback_reason_;
  bool started_ = false;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace prord::net
