// Bridge between the experiment engine and the observability layer.
//
// Three jobs:
//   1. collect_run_metrics: turn one finished run's accounting (driver
//      RunMetrics, back-end/cache/dispatcher stats, PRORD introspection)
//      into the named, label-tagged metric catalogue of
//      docs/OBSERVABILITY.md (~40 distinct metric names).
//   2. register_cluster_probes: attach the standard gauge probes (open
//      requests, cache occupancy, resource backlogs) to a Sampler.
//   3. export_observability: render per-cell artifacts across a whole
//      grid — Prometheus/CSV metrics, CSV time series, JSONL traces — in
//      cell/replication order, which is what makes the files byte-stable
//      at any --jobs count.
#pragma once

#include <string>
#include <vector>

#include "adapt/controller.h"
#include "core/parallel_runner.h"
#include "core/workload_player.h"
#include "faults/health_monitor.h"
#include "obs/metric_registry.h"
#include "obs/sampler.h"

namespace prord::core {

/// Populates `reg` from one finished run. `policy_name` becomes the
/// `policy` label on every series. Per-back-end series carry a `backend`
/// label; route-mechanism counters a `via` label.
void collect_run_metrics(obs::MetricRegistry& reg,
                         const std::string& policy_name, const RunMetrics& m,
                         cluster::Cluster& cluster,
                         const policies::DistributionPolicy& policy);

/// Populates `reg` with the fault/recovery catalogue of one fault-injected
/// run: crash/restart/detection counters, detection-latency and downtime
/// gauges, re-warm episode accounting (docs/FAULTS.md).
void collect_fault_metrics(obs::MetricRegistry& reg,
                           const std::string& policy_name,
                           const faults::FaultStats& stats,
                           const RunMetrics& m);

/// Populates `reg` with the online-adaptation catalogue of one adaptive
/// run: re-mine/skip/trigger counters, epoch gauge, mining-thread busy
/// time, window sizes, and the drift monitor's final windowed hit-rate
/// and prefetch-waste gauges (docs/ADAPTATION.md).
void collect_adapt_metrics(obs::MetricRegistry& reg,
                           const std::string& policy_name,
                           const adapt::AdaptStats& stats);

/// Registers the standard cluster gauge probes (per-back-end open
/// requests, cache occupancy, CPU/disk backlog; dispatcher table size;
/// cluster mean load). `cluster` must outlive the sampler.
void register_cluster_probes(obs::Sampler& sampler,
                             cluster::Cluster& cluster);

/// CLI-facing export selection, shared by prord_sim and the benches.
struct ObsExportOptions {
  std::string metrics_out;  ///< "" = off, "-" = stdout; *.csv selects CSV
  std::string series_out;   ///< "" = off; gauge time-series CSV
  std::string trace_out;    ///< "" = off, "-" = stdout; span JSONL
  double trace_sample_rate = 1.0;              ///< share of requests traced
  sim::SimTime sample_interval = sim::msec(100);  ///< series cadence

  bool any() const noexcept {
    return !metrics_out.empty() || !series_out.empty() || !trace_out.empty();
  }
};

/// Per-run ObsOptions implied by the selected exports (metrics collection
/// only when requested, tracing only when a trace sink exists, ...).
ObsOptions to_obs_options(const ObsExportOptions& options);

/// Renderers (exposed for the determinism tests): output is a pure
/// function of the results, iterated in cell order then replication
/// order. Metrics from every cell are merged into one registry with
/// `cell` (and, when replications > 1, `rep`) labels appended.
std::string render_metrics(const std::vector<CellResult>& results, bool csv);
std::string render_series_csv(const std::vector<CellResult>& results);
std::string render_trace_jsonl(const std::vector<CellResult>& results);

/// Writes every requested artifact ('-' = stdout). Returns false if any
/// sink could not be opened (reported on stderr).
bool export_observability(const std::vector<CellResult>& results,
                          const ObsExportOptions& options);

}  // namespace prord::core
