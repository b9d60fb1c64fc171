#include "core/obs_export.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/exporters.h"
#include "obs/tracer.h"
#include "policies/prord.h"

namespace prord::core {
namespace {

obs::Labels with_backend(const obs::Labels& base, std::uint32_t b) {
  obs::Labels labels = base;
  labels.emplace_back("backend", std::to_string(b));
  return labels;
}

}  // namespace

void collect_run_metrics(obs::MetricRegistry& reg,
                         const std::string& policy_name, const RunMetrics& m,
                         cluster::Cluster& cluster,
                         const policies::DistributionPolicy& policy) {
  const obs::Labels p{{"policy", policy_name}};

  // --- Front-end / dispatcher / run-level.
  reg.set_help("prord_requests_completed_total",
               "Requests served to completion in the measured run");
  reg.counter_add("prord_requests_completed_total", p,
                  static_cast<double>(m.completed));
  reg.set_help("prord_requests_failed_total",
               "Requests that exhausted every retry (fault runs)");
  reg.counter_add("prord_requests_failed_total", p,
                  static_cast<double>(m.failed));
  reg.counter_add("prord_requests_retried_total", p,
                  static_cast<double>(m.retries));
  reg.set_help("prord_requests_redispatched_total",
               "Retries the front-end routed away from the failed server");
  reg.counter_add("prord_requests_redispatched_total", p,
                  static_cast<double>(m.redispatches));
  reg.set_help("prord_requests_routed_total",
               "Requests per routing mechanism (Fig. 4 decision paths)");
  for (unsigned v = 0; v < obs::kNumRouteVia; ++v) {
    obs::Labels labels = p;
    labels.emplace_back("via",
                        obs::route_via_name(static_cast<obs::RouteVia>(v)));
    reg.counter_add("prord_requests_routed_total", labels,
                    static_cast<double>(m.routes_via[v]));
  }
  reg.set_help("prord_dispatcher_contacts_total",
               "Dispatcher lookups (Fig. 6's frequency of dispatches)");
  reg.counter_add("prord_dispatcher_contacts_total", p,
                  static_cast<double>(m.dispatches));
  reg.counter_add("prord_tcp_handoffs_total", p,
                  static_cast<double>(m.handoffs));
  reg.counter_add("prord_backend_forwards_total", p,
                  static_cast<double>(m.forwards));
  reg.gauge_set("prord_dispatcher_files_tracked", p,
                static_cast<double>(cluster.dispatcher().num_files_tracked()));
  reg.counter_add("prord_frontend_busy_seconds", p,
                  sim::to_seconds(m.frontend_busy));
  reg.counter_add("prord_interconnect_busy_seconds", p,
                  sim::to_seconds(m.interconnect_busy));
  reg.set_help("prord_response_time_us",
               "End-to-end response time per request (microseconds)");
  reg.histogram_merge("prord_response_time_us", p, m.response_hist);
  reg.stats_merge("prord_response_time_summary_us", p, m.response_time_us);
  reg.gauge_set("prord_throughput_rps", p, m.throughput_rps());
  reg.gauge_set("prord_run_span_seconds", p,
                sim::to_seconds(m.last_completion - m.first_issue));
  reg.gauge_set("prord_sim_now_seconds", p,
                sim::to_seconds(cluster.sim().now()));
  reg.counter_add("prord_sim_events_dispatched_total", p,
                  static_cast<double>(cluster.sim().dispatched_events()));
  reg.counter_add("prord_energy_full_power_seconds", p,
                  m.energy_full_power_seconds);
  reg.counter_add("prord_disk_reads_total", p,
                  static_cast<double>(m.disk_reads));
  reg.set_help("prord_prefetch_disk_reads_total",
               "Disk reads initiated by prefetching (proactive I/O cost)");
  reg.counter_add("prord_prefetch_disk_reads_total", p,
                  static_cast<double>(m.prefetch_reads));

  // --- Per-back-end server, cache, prefetch, replication counters.
  for (std::uint32_t b = 0; b < cluster.size(); ++b) {
    const auto& be = cluster.backend(b);
    const auto& st = be.stats();
    const obs::Labels pb = with_backend(p, b);
    reg.counter_add("prord_backend_requests_served_total", pb,
                    static_cast<double>(st.requests_served));
    reg.counter_add("prord_backend_dynamic_served_total", pb,
                    static_cast<double>(st.dynamic_served));
    reg.counter_add("prord_backend_bytes_served_total", pb,
                    static_cast<double>(st.bytes_served));
    reg.counter_add("prord_backend_disk_reads_total", pb,
                    static_cast<double>(st.disk_reads));
    reg.counter_add("prord_backend_cooperative_pulls_total", pb,
                    static_cast<double>(st.cooperative_pulls));
    reg.counter_add("prord_backend_cpu_busy_seconds", pb,
                    sim::to_seconds(be.cpu().busy_time()));
    reg.counter_add("prord_backend_disk_busy_seconds", pb,
                    sim::to_seconds(be.disk().busy_time()));
    reg.counter_add("prord_backend_nic_busy_seconds", pb,
                    sim::to_seconds(be.nic().busy_time()));
    reg.gauge_set("prord_backend_open_requests", pb,
                  static_cast<double>(be.load()));

    const auto& cs = be.cache().stats();
    reg.counter_add("prord_cache_hits_total", pb,
                    static_cast<double>(cs.hits));
    reg.counter_add("prord_cache_misses_total", pb,
                    static_cast<double>(cs.misses));
    reg.counter_add("prord_cache_demand_evictions_total", pb,
                    static_cast<double>(cs.demand_evictions));
    reg.counter_add("prord_cache_pinned_evictions_total", pb,
                    static_cast<double>(cs.pinned_evictions));
    reg.gauge_set("prord_cache_demand_bytes", pb,
                  static_cast<double>(be.cache().demand_bytes()));
    reg.gauge_set("prord_cache_pinned_bytes", pb,
                  static_cast<double>(be.cache().pinned_bytes()));
    reg.gauge_set("prord_cache_demand_capacity_bytes", pb,
                  static_cast<double>(be.cache().demand_capacity()));
    reg.gauge_set("prord_cache_pinned_capacity_bytes", pb,
                  static_cast<double>(be.cache().pinned_capacity()));
    reg.gauge_set("prord_cache_resident_files", pb,
                  static_cast<double>(be.cache().num_files()));

    reg.counter_add("prord_prefetch_issued_total", pb,
                    static_cast<double>(st.prefetches_issued));
    reg.counter_add("prord_prefetch_skipped_total", pb,
                    static_cast<double>(st.prefetches_skipped));
    reg.counter_add("prord_replication_received_total", pb,
                    static_cast<double>(st.replications_received));
  }
  reg.set_help("prord_cache_hit_ratio",
               "Aggregate back-end memory hit ratio over the measured run");
  reg.gauge_set("prord_cache_hit_ratio", p, m.cache.hit_rate());

  // --- Prefetch predictor / replication planner (PRORD family only).
  if (const auto* prord = dynamic_cast<const policies::Prord*>(&policy)) {
    reg.set_help("prord_bundle_forwards_total",
                 "Embedded-object forwards that skipped the dispatcher");
    reg.counter_add("prord_bundle_forwards_total", p,
                    static_cast<double>(prord->bundle_forwards()));
    reg.counter_add("prord_prefetch_route_hits_total", p,
                    static_cast<double>(prord->prefetch_hits()));
    reg.set_help("prord_prefetch_triggered_total",
                 "Navigation predictions that cleared Algorithm 2's "
                 "threshold and triggered a prefetch");
    reg.counter_add("prord_prefetch_triggered_total", p,
                    static_cast<double>(prord->prefetches_triggered()));
    reg.gauge_set("prord_prefetch_threshold", p, prord->current_threshold());
    reg.set_help("prord_replication_rounds_total",
                 "Algorithm 3 planner invocations");
    reg.counter_add("prord_replication_rounds_total", p,
                    static_cast<double>(prord->replication_rounds()));
    reg.counter_add("prord_replication_replicas_pushed_total", p,
                    static_cast<double>(prord->replicas_pushed()));
    reg.set_help("prord_prediction_hits_total",
                 "Navigation predictions whose top guess matched the next "
                 "request on the session");
    reg.counter_add("prord_prediction_hits_total", p,
                    static_cast<double>(prord->prediction_hits()));
    reg.counter_add("prord_prediction_misses_total", p,
                    static_cast<double>(prord->prediction_misses()));
    reg.set_help("prord_prediction_hit_ratio",
                 "hits / (hits + misses) over every scored prediction");
    reg.gauge_set("prord_prediction_hit_ratio", p,
                  prord->prediction_hit_rate());
  }
}

void collect_adapt_metrics(obs::MetricRegistry& reg,
                           const std::string& policy_name,
                           const adapt::AdaptStats& stats) {
  const obs::Labels p{{"policy", policy_name}};
  reg.set_help("prord_adapt_remine_total",
               "Models re-mined and published during the measured run");
  reg.counter_add("prord_adapt_remine_total", p,
                  static_cast<double>(stats.remines));
  reg.set_help("prord_adapt_remine_drift_total",
               "Re-mines triggered early by the drift monitor");
  reg.counter_add("prord_adapt_remine_drift_total", p,
                  static_cast<double>(stats.drift_remines));
  reg.set_help("prord_adapt_remine_skipped_total",
               "Epoch ticks skipped (mining in flight or empty window)");
  reg.counter_add("prord_adapt_remine_skipped_total", p,
                  static_cast<double>(stats.skipped));
  reg.set_help("prord_adapt_epoch",
               "Epoch of the model the policy is serving from");
  reg.gauge_set("prord_adapt_epoch", p, static_cast<double>(stats.epoch));
  reg.set_help("prord_adapt_mining_busy_seconds",
               "Simulated CPU the background mining thread consumed");
  reg.counter_add("prord_adapt_mining_busy_seconds", p,
                  sim::to_seconds(stats.mining_busy));
  reg.set_help("prord_adapt_window_requests",
               "Sliding-window requests captured at the last re-mine");
  reg.gauge_set("prord_adapt_window_requests", p,
                static_cast<double>(stats.window_requests));
  reg.gauge_set("prord_adapt_window_sessions", p,
                static_cast<double>(stats.window_sessions));
  reg.set_help("prord_adapt_publish_delay_seconds",
               "Summed mining-start-to-publish latency across re-mines");
  reg.counter_add("prord_adapt_publish_delay_seconds", p,
                  sim::to_seconds(stats.publish_delay));
  reg.set_help("prord_drift_triggers_total",
               "Times the rolling hit-rate crossed below the drift "
               "threshold and forced an early re-mine");
  reg.counter_add("prord_drift_triggers_total", p,
                  static_cast<double>(stats.drift_triggers));
  reg.set_help("prord_drift_window_hit_rate",
               "Drift monitor's rolling prediction hit-rate at run end "
               "(-1 = under min_samples)");
  reg.gauge_set("prord_drift_window_hit_rate", p, stats.final_hit_rate);
  reg.set_help("prord_drift_prefetch_waste",
               "Rolling share of issued prefetches never used at run end "
               "(-1 = none issued)");
  reg.gauge_set("prord_drift_prefetch_waste", p, stats.final_prefetch_waste);
}

void collect_fault_metrics(obs::MetricRegistry& reg,
                           const std::string& policy_name,
                           const faults::FaultStats& stats,
                           const RunMetrics& m) {
  const obs::Labels p{{"policy", policy_name}};
  reg.set_help("prord_fault_crashes_total",
               "Back-end crash events injected into the measured run");
  reg.counter_add("prord_fault_crashes_total", p,
                  static_cast<double>(stats.crashes));
  reg.counter_add("prord_fault_restarts_total", p,
                  static_cast<double>(stats.restarts));
  reg.counter_add("prord_fault_slowdowns_total", p,
                  static_cast<double>(stats.slowdowns));
  reg.set_help("prord_fault_down_detections_total",
               "Heartbeat sweeps that flipped a server's belief to down");
  reg.counter_add("prord_fault_down_detections_total", p,
                  static_cast<double>(stats.down_detections));
  reg.counter_add("prord_fault_up_detections_total", p,
                  static_cast<double>(stats.up_detections));
  reg.set_help("prord_fault_detection_latency_us",
               "Crash-to-detection gap per down-detection (microseconds)");
  reg.stats_merge("prord_fault_detection_latency_us", p,
                  stats.detection_latency_us);
  reg.set_help("prord_fault_believed_unavailable_seconds",
               "Front-end-believed downtime summed over servers");
  reg.gauge_set("prord_fault_believed_unavailable_seconds", p,
                sim::to_seconds(stats.believed_unavailable));
  reg.set_help("prord_fault_actual_unavailable_seconds",
               "Ground-truth crashed time summed over servers");
  reg.gauge_set("prord_fault_actual_unavailable_seconds", p,
                sim::to_seconds(stats.actual_unavailable));
  reg.set_help("prord_fault_rewarm_time_us",
               "Rejoin-to-cache-warm durations (microseconds)");
  reg.counter_add("prord_fault_rewarms_completed_total", p,
                  static_cast<double>(stats.rewarms_completed));
  reg.counter_add("prord_fault_rewarms_unfinished_total", p,
                  static_cast<double>(stats.rewarms_unfinished));
  reg.stats_merge("prord_fault_rewarm_time_us", p, stats.rewarm_time_us);
  reg.set_help("prord_fault_success_ratio",
               "completed / (completed + failed) over the measured run");
  reg.gauge_set("prord_fault_success_ratio", p, m.success_ratio());
}

void register_cluster_probes(obs::Sampler& sampler,
                             cluster::Cluster& cluster) {
  for (std::uint32_t b = 0; b < cluster.size(); ++b) {
    const obs::Labels labels{{"backend", std::to_string(b)}};
    sampler.add_probe("prord_backend_load", labels,
                      [&cluster, b](sim::SimTime) {
                        return static_cast<double>(cluster.backend(b).load());
                      });
    sampler.add_probe("prord_backend_cpu_backlog_us", labels,
                      [&cluster, b](sim::SimTime now) {
                        return static_cast<double>(
                            cluster.backend(b).cpu().backlog(now));
                      });
    sampler.add_probe("prord_backend_disk_backlog_us", labels,
                      [&cluster, b](sim::SimTime now) {
                        return static_cast<double>(
                            cluster.backend(b).disk().backlog(now));
                      });
    sampler.add_probe("prord_cache_demand_bytes", labels,
                      [&cluster, b](sim::SimTime) {
                        return static_cast<double>(
                            cluster.backend(b).cache().demand_bytes());
                      });
    sampler.add_probe("prord_cache_pinned_bytes", labels,
                      [&cluster, b](sim::SimTime) {
                        return static_cast<double>(
                            cluster.backend(b).cache().pinned_bytes());
                      });
  }
  sampler.add_probe("prord_dispatcher_files_tracked", {},
                    [&cluster](sim::SimTime) {
                      return static_cast<double>(
                          cluster.dispatcher().num_files_tracked());
                    });
  sampler.add_probe("prord_cluster_mean_load", {},
                    [&cluster](sim::SimTime) {
                      return cluster.average_load();
                    });
}

ObsOptions to_obs_options(const ObsExportOptions& options) {
  ObsOptions obs;
  obs.metrics = !options.metrics_out.empty();
  if (!options.series_out.empty())
    obs.sample_interval = options.sample_interval;
  if (!options.trace_out.empty())
    obs.trace_sample_rate = options.trace_sample_rate;
  return obs;
}

namespace {

bool ends_with_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Writes `text` to `path` ('-' = stdout); false + stderr note on failure.
bool write_sink(const std::string& path, const std::string& text,
                const char* what) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "obs: cannot write " << what << " to " << path << '\n';
    return false;
  }
  out << text;
  std::cerr << "obs: wrote " << what << " to " << path << '\n';
  return true;
}

}  // namespace

std::string render_metrics(const std::vector<CellResult>& results, bool csv) {
  obs::MetricRegistry merged;
  for (const auto& cell : results) {
    const bool multi_rep = cell.replications.size() > 1;
    for (std::size_t r = 0; r < cell.replications.size(); ++r) {
      obs::Labels extra{{"cell", cell.label}};
      if (multi_rep) extra.emplace_back("rep", std::to_string(r));
      merged.merge(cell.replications[r].registry.with_labels(extra));
    }
  }
  return csv ? obs::to_metrics_csv(merged) : obs::to_prometheus(merged);
}

std::string render_series_csv(const std::vector<CellResult>& results) {
  std::ostringstream os;
  os << "cell,rep,metric,labels,t_us,value\n";
  for (const auto& cell : results) {
    for (std::size_t r = 0; r < cell.replications.size(); ++r) {
      std::vector<obs::Series> series = cell.replications[r].series;
      std::sort(series.begin(), series.end(),
                [](const obs::Series& a, const obs::Series& b) {
                  return obs::canonical_key(a.name, a.labels) <
                         obs::canonical_key(b.name, b.labels);
                });
      for (const auto& s : series) {
        std::string labels;
        for (const auto& [k, v] : s.labels) {
          if (!labels.empty()) labels += ';';
          labels += k;
          labels += '=';
          labels += v;
        }
        for (const auto& pt : s.points)
          os << cell.label << ',' << r << ',' << s.name << ',' << labels
             << ',' << pt.at << ',' << obs::format_value(pt.value) << '\n';
      }
    }
  }
  return os.str();
}

std::string render_trace_jsonl(const std::vector<CellResult>& results) {
  std::ostringstream os;
  for (const auto& cell : results) {
    for (std::size_t r = 0; r < cell.replications.size(); ++r) {
      const auto& result = cell.replications[r];
      for (const auto& span : result.spans) {
        os << "{\"cell\":\"" << json_escape(cell.label) << "\",\"rep\":" << r
           << ",\"policy\":\"" << json_escape(result.policy) << "\",";
        obs::write_span_fields(os, span);
        os << "}\n";
      }
    }
  }
  return os.str();
}

bool export_observability(const std::vector<CellResult>& results,
                          const ObsExportOptions& options) {
  bool ok = true;
  if (!options.metrics_out.empty())
    ok &= write_sink(options.metrics_out,
                     render_metrics(results, ends_with_csv(options.metrics_out)),
                     "metrics");
  if (!options.series_out.empty())
    ok &= write_sink(options.series_out, render_series_csv(results),
                     "gauge time series");
  if (!options.trace_out.empty())
    ok &= write_sink(options.trace_out, render_trace_jsonl(results),
                     "request trace");
  return ok;
}

}  // namespace prord::core
