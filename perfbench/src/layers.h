// Layer replays: time and allocation-count single layers' public
// functions over a workload's own request stream, outside any run, so a
// per-layer number moves only when that layer's code does.
#pragma once

#include <cstddef>

#include "core/experiment.h"
#include "net/live_cluster.h"
#include "probe.h"

namespace perfbench {

struct LayerPlan {
  /// The workload's site, traces, mined model and cache sizing.
  const prord::net::LiveSetup* setup = nullptr;
  /// Requests between two Algorithm 3 replication rounds, as the
  /// workload's run paces them.
  std::size_t requests_per_round = 1;
  /// Online adaptation, replayed when enabled (sim_fig8):
  /// StreamSessionizer + streaming re-mine.
  prord::core::AdaptOptions adapt{};
  /// Live workloads: HTTP codec and the distributor's belief router,
  /// advanced at `route_interval_us` of wall clock per request.
  /// The prediction service's feed path is replayed with them.
  bool net = false;
  double route_interval_us = 0.0;
};

/// Runs the replays `plan` enables and adds their per-layer metrics.
void replay_layers(const LayerPlan& plan, Report& report);

}  // namespace perfbench
