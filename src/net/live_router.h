// LiveRouter: the distributor's belief model.
//
// The policies (WRR/LARD/Ext-LARD-PHTTP/PRESS/PRORD) were written against
// the simulated cluster: they read back-end load, cache contents and the
// simulation clock, and PRORD schedules its Algorithm 3 replication
// rounds as periodic simulator events. Rather than port them to sockets,
// the live distributor keeps a cluster::Cluster as *belief state*: wall
// time since run start maps onto the simulation clock (advance_to), real
// in-flight requests mirror into BackendServer::live_begin/live_end, and
// routing decisions flow through the same core::RoutingCore the workload
// player uses — one routing code path for sim and live, which the
// routing-parity test pins.
//
// Single-threaded by contract: every method runs on the distributor's
// event-loop thread.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/cluster.h"
#include "core/experiment.h"
#include "core/routing_core.h"
#include "logmining/mining_model.h"
#include "simcore/simulator.h"
#include "trace/workload.h"

namespace prord::net {

class LiveRouter {
 public:
  /// `files` is borrowed and must outlive the router; `model` may be null
  /// for policies that don't mine. Cache capacities are per back-end
  /// bytes for the belief caches (mirroring what the real workers get).
  LiveRouter(const core::ExperimentConfig& config,
             std::shared_ptr<logmining::MiningModel> model,
             const trace::FileTable& files, std::uint64_t demand_bytes,
             std::uint64_t pinned_bytes);
  ~LiveRouter();

  void start() { policy_->start(cluster_); }
  void finish() { policy_->finish(cluster_); }

  /// Advances the belief clock to `t` (µs since run start). Periodic
  /// policy work scheduled in (now, t] — PRORD replication rounds,
  /// belief-cache disk completions — fires here.
  void advance_to(sim::SimTime t);

  /// Routes and commits one request through the shared RoutingCore.
  core::RoutedRequest route(const trace::Request& req) {
    return routing_.route(req);
  }

  /// The request was forwarded to worker `server`: mirror the in-flight
  /// load + demand cache into belief, then fire the policy's proactive
  /// machinery (bundle prefetch etc.).
  void on_forwarded(const trace::Request& req, policies::ServerId server) {
    cluster_.backend(server).live_begin(req.file, req.bytes, req.is_dynamic);
    routing_.notify_routed(req, server);
  }

  /// The worker's response reached the distributor.
  void on_response(const trace::Request& req, policies::ServerId server) {
    cluster_.backend(server).live_end();
    routing_.notify_complete(req, server);
  }

  /// The request failed (upstream connection died): release belief load
  /// and unstick the client connection.
  void on_failure(const trace::Request& req, policies::ServerId server) {
    cluster_.backend(server).live_end();
    routing_.unstick(req.conn, server);
  }

  void forget_connection(std::uint32_t conn) { routing_.forget(conn); }

  cluster::Cluster& cluster() noexcept { return cluster_; }
  core::RoutingCore& core() noexcept { return routing_; }
  const core::RoutingCore& core() const noexcept { return routing_; }
  sim::Simulator& sim() noexcept { return sim_; }
  policies::DistributionPolicy& policy() noexcept { return *policy_; }

 private:
  sim::Simulator sim_;
  cluster::Cluster cluster_;
  std::unique_ptr<policies::DistributionPolicy> policy_;
  core::RoutingCore routing_;
};

}  // namespace prord::net
