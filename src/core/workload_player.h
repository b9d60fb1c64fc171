// Workload player: drives a request trace through the cluster under a
// distribution policy and collects the paper's metrics.
//
// Timing model:
//   - Arrivals are the trace timestamps compressed by `time_scale` (>1
//     speeds the trace up to put the cluster under load — the paper's
//     throughput numbers are saturation throughputs).
//   - HTTP/1.1 semantics: requests of one persistent connection are
//     serialized — request i+1 is issued at max(scaled trace time,
//     completion of request i). Across connections the system is open.
//   - Front-end cost per request: analyze + (dispatch lookup if the policy
//     contacted the dispatcher) + (TCP handoff work if the connection was
//     (re)handed off). All of it occupies the single distributor CPU —
//     this is the front-end bottleneck Section 4.2 talks about.
//   - Back-end forwarding (Ext-LARD-PHTTP): the target back-end serves the
//     request; the connection's home back-end additionally spends relay
//     CPU, and the response takes an extra interconnect hop.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "policies/policy.h"
#include "simcore/simulator.h"
#include "trace/workload.h"

namespace prord::core {

struct PlayerOptions {
  double time_scale = 1.0;  ///< arrival compression factor (>= 1 speeds up)
  /// Open-loop mode: issue every request at its (scaled) trace time even
  /// if the previous response on the same connection has not returned.
  /// Breaks HTTP/1.1 semantics, but isolates how much of a measured
  /// difference comes from closed-loop self-throttling — a methodology
  /// ablation, not a production mode.
  bool open_loop = false;
  /// When > 0, sample a timeline point every `sample_interval` of
  /// simulated time (completions in the window, mean per-server load).
  sim::SimTime sample_interval = 0;
  /// Request-lifecycle tracer: when set and enabled, one RequestSpan per
  /// (sampled) request is recorded at completion. Borrowed, may be null.
  obs::Tracer* tracer = nullptr;
  /// Gauge sampler: when set with a non-zero interval, the player drives
  /// sampler->sample(now) on that simulated-time cadence while the run is
  /// live (same re-arming discipline as the timeline probe, so a drained
  /// event set is never kept alive). Borrowed, may be null.
  obs::Sampler* sampler = nullptr;

  // --- Fault-injection runs (docs/FAULTS.md).
  /// Attempts after a failed request. 0 keeps the legacy contract: a
  /// failure is terminal and a policy returning no server is a logic
  /// error. With retries, the client re-routes after a back-off; the run
  /// ends when completed + failed == issued (conservation).
  std::uint32_t max_retries = 0;
  /// Client back-off before attempt n+1 (linear: backoff * attempt).
  sim::SimTime retry_backoff = sim::msec(100);
  /// Fired once when the run drains (completed + failed == issued), after
  /// policy finish. Fault harnesses stop their heartbeat here so the
  /// event set can empty.
  std::function<void()> on_drain;

  /// Workload phase starts in *trace* time (ascending, typically starting
  /// at 0). Non-empty enables per-phase accounting: each request is
  /// attributed to the phase containing its trace timestamp, so drifting
  /// workloads (trace::DriftSpec) can be reported phase by phase.
  /// Accounting only — never perturbs the event schedule.
  std::vector<sim::SimTime> phase_starts;
};

/// Per-workload-phase accounting (PlayerOptions::phase_starts).
struct PhaseStats {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;  ///< served with the file already resident
  metrics::RunningStats response_time_us;
  sim::SimTime first_issue = 0;
  sim::SimTime last_completion = 0;

  double hit_rate() const {
    return completed ? static_cast<double>(cache_hits) /
                           static_cast<double>(completed)
                     : 0.0;
  }
  double throughput_rps() const {
    const double span = sim::to_seconds(last_completion - first_issue);
    return span > 0 ? static_cast<double>(completed) / span : 0.0;
  }
};

/// One timeline sample (throughput-over-time style reporting).
struct TimelineSample {
  sim::SimTime at = 0;              ///< end of the sampling window
  std::uint64_t completed = 0;      ///< completions inside the window
  double mean_load = 0.0;           ///< mean open requests per back-end
  std::uint32_t max_load = 0;       ///< hottest back-end's open requests
};

struct RunMetrics {
  std::uint64_t completed = 0;
  /// Fault runs: requests that exhausted every retry. Conservation:
  /// completed + failed == issued always holds at run end.
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;       ///< re-issue attempts after failures
  std::uint64_t redispatches = 0;  ///< retries routed away from the failure
  std::uint64_t dispatches = 0;   ///< dispatcher contacts (Fig. 6)
  std::uint64_t handoffs = 0;     ///< TCP handoffs performed
  std::uint64_t forwards = 0;     ///< back-end-forwarded requests
  sim::SimTime first_issue = 0;
  sim::SimTime last_completion = 0;
  metrics::RunningStats response_time_us;
  metrics::Histogram response_hist{1ULL << 36};
  cluster::CacheStats cache;      ///< aggregated over back-ends
  std::vector<std::uint64_t> per_server_served;
  std::vector<sim::SimTime> per_server_disk_busy;
  std::vector<sim::SimTime> per_server_cpu_busy;
  std::uint64_t disk_reads = 0;        ///< unique disk fetches (all servers)
  std::uint64_t prefetch_reads = 0;    ///< disk fetches initiated by prefetch
  /// Requests routed per mechanism, indexed by obs::RouteVia (how often
  /// the bundle/prefetch/replica shortcuts actually fired).
  std::array<std::uint64_t, obs::kNumRouteVia> routes_via{};
  sim::SimTime frontend_busy = 0;
  sim::SimTime interconnect_busy = 0;
  double energy_full_power_seconds = 0.0;
  std::vector<TimelineSample> timeline;  ///< empty unless sampling enabled
  /// One entry per workload phase; empty unless phase_starts was set.
  std::vector<PhaseStats> phases;

  /// Requests per second of simulated time (the paper's throughput).
  /// `completed` counts successes only, so under faults this is goodput.
  double throughput_rps() const {
    const double span = sim::to_seconds(last_completion - first_issue);
    return span > 0 ? static_cast<double>(completed) / span : 0.0;
  }
  double mean_response_ms() const { return response_time_us.mean() / 1000.0; }
  /// Fraction of issued requests that eventually succeeded.
  double success_ratio() const {
    const auto total = completed + failed;
    return total ? static_cast<double>(completed) / static_cast<double>(total)
                 : 1.0;
  }
};

/// Plays `workload` through `cluster` under `policy`. Runs the simulation
/// to completion and returns the metrics. The cluster and policy must
/// outlive the call; the simulator must be the one the cluster was built
/// on.
RunMetrics play_workload(sim::Simulator& sim, cluster::Cluster& cluster,
                         policies::DistributionPolicy& policy,
                         const trace::Workload& workload,
                         const PlayerOptions& options = {});

}  // namespace prord::core
