#include "net/live_cluster.h"

#include <sys/socket.h>

#include <fstream>
#include <memory>
#include <utility>

#include "net/backend_worker.h"
#include "net/distributor.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "trace/clf.h"
#include "trace/generator.h"
#include "trace/site_model.h"
#include "trace/workload.h"

namespace prord::net {
namespace {

/// Snapshot everything observable into a registry. Called both by the
/// distributor's /metrics provider (on the distributor thread, while the
/// run is live) and once more after teardown for LiveRunResult::registry.
obs::MetricRegistry build_registry(const Distributor& dist,
                                   const core::RoutingCore& core,
                                   const std::vector<std::unique_ptr<BackendWorker>>& workers,
                                   const LoadGenResult* load,
                                   const predict::IPredictor* predictor) {
  obs::MetricRegistry reg;
  const auto& c = dist.counters();
  reg.set_help("prord_live_requests_total",
               "Client requests parsed by the distributor");
  reg.counter_add("prord_live_requests_total", {},
                  static_cast<double>(c.requests.load()));
  reg.counter_add("prord_live_responses_total", {},
                  static_cast<double>(c.responses.load()));
  reg.counter_add("prord_live_failures_total", {},
                  static_cast<double>(c.failures.load()));
  reg.counter_add("prord_live_not_found_total", {},
                  static_cast<double>(c.not_found.load()));
  reg.counter_add("prord_live_parse_errors_total", {},
                  static_cast<double>(c.parse_errors.load()));
  reg.counter_add("prord_live_metrics_scrapes_total", {},
                  static_cast<double>(c.metrics_scrapes.load()));

  reg.set_help("prord_live_routed_total",
               "Requests committed through the shared RoutingCore");
  reg.counter_add("prord_live_routed_total", {},
                  static_cast<double>(core.routed()));
  reg.counter_add("prord_live_dispatches_total", {},
                  static_cast<double>(core.dispatches()));
  reg.counter_add("prord_live_handoffs_total", {},
                  static_cast<double>(core.handoffs()));
  reg.counter_add("prord_live_forwards_total", {},
                  static_cast<double>(core.forwards()));
  const auto& via = core.routes_via();
  for (unsigned v = 0; v < obs::kNumRouteVia; ++v) {
    reg.counter_add(
        "prord_live_routes_via_total",
        {{"via", obs::route_via_name(static_cast<obs::RouteVia>(v))}},
        static_cast<double>(via[v]));
  }

  for (const auto& w : workers) append_backend_metrics(reg, *w);

  // Prediction subsystem (docs/PREDICTOR.md), present when the live
  // prefetch seam is armed.
  if (predictor != nullptr) {
    append_predictor_service_metrics(reg, *predictor);

    reg.set_help("prord_predict_prefetch_issued_total",
                 "Cache-warming requests sent to backend workers");
    reg.counter_add("prord_predict_prefetch_issued_total", {},
                    static_cast<double>(c.prefetch_issued.load()));
    reg.counter_add("prord_predict_prefetch_responses_total", {},
                    static_cast<double>(c.prefetch_responses.load()));
    reg.set_help("prord_predict_prefetch_hits_total",
                 "Client cache hits on files this distributor prefetched");
    reg.counter_add("prord_predict_prefetch_hits_total", {},
                    static_cast<double>(c.prefetch_hits.load()));
    reg.counter_add("prord_predict_prefetch_wasted_total", {},
                    static_cast<double>(c.prefetch_wasted.load()));
    reg.counter_add("prord_predict_queue_drop_events_total", {},
                    static_cast<double>(c.predict_drops.load()));
  }

  // Tracing + SLO posture (docs/OBSERVABILITY.md).
  const auto& obs_opts = dist.obs_options();
  reg.set_help("prord_live_trace_spans_total",
               "Completed live hop spans retained by the distributor");
  reg.counter_add("prord_live_trace_spans_total", {},
                  static_cast<double>(c.trace_spans.load()));
  reg.counter_add("prord_live_trace_dropped_total", {},
                  static_cast<double>(c.trace_dropped.load()));
  reg.gauge_set("prord_live_trace_sample_rate", obs_opts.trace_sample_rate);

  const obs::SloEval slo = dist.slo().evaluate(dist.elapsed_us());
  reg.set_help("prord_live_slo_burn_rate",
               "Error rate over error budget per rolling window");
  reg.gauge_set("prord_live_slo_burn_rate", {{"window", "short"}},
                slo.short_window.burn_rate);
  reg.gauge_set("prord_live_slo_burn_rate", {{"window", "long"}},
                slo.long_window.burn_rate);
  reg.gauge_set("prord_live_slo_error_rate", {{"window", "short"}},
                slo.short_window.error_rate);
  reg.gauge_set("prord_live_slo_error_rate", {{"window", "long"}},
                slo.long_window.error_rate);
  reg.gauge_set("prord_live_slo_violating", slo.violating ? 1.0 : 0.0);
  reg.counter_add("prord_live_slo_violations_total", {},
                  static_cast<double>(c.slo_violations.load()));
  reg.counter_add("prord_live_flight_dumps_total", {},
                  static_cast<double>(c.flight_dumps.load()));
  reg.gauge_set("prord_live_slo_latency_objective_us",
                static_cast<double>(obs_opts.slo.latency_objective_us));
  reg.gauge_set("prord_live_slo_availability_objective",
                obs_opts.slo.availability_objective);

  if (load != nullptr) {
    reg.counter_add("prord_live_client_issued_total", {},
                    static_cast<double>(load->issued));
    reg.counter_add("prord_live_client_completed_total", {},
                    static_cast<double>(load->completed));
    reg.counter_add("prord_live_client_failed_total", {},
                    static_cast<double>(load->failed));
    reg.gauge_set("prord_live_client_throughput_rps", load->throughput_rps());
    reg.set_help("prord_live_client_latency_us",
                 "Send-to-response wall-clock latency per request");
    reg.stats_merge("prord_live_client_latency_us", {}, load->latency_us);
    if (load->latency_hist.count() > 0)
      reg.histogram_merge("prord_live_client_latency_us_hist", {},
                          load->latency_hist);

    // Final (post-run) snapshot only: per-hop latency decomposition over
    // the collected spans — too heavy for a live scrape.
    reg.set_help("prord_live_hop_us",
                 "Per-hop wall-clock time across sampled live spans");
    for (const obs::LiveSpan& span : dist.spans()) {
      for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
        reg.stats_add("prord_live_hop_us",
                      {{"hop", obs::live_hop_name(
                                   static_cast<obs::LiveHop>(h))}},
                      static_cast<double>(span.hop_us[h]));
      }
    }
  }
  return reg;
}

}  // namespace

void append_backend_metrics(obs::MetricRegistry& reg,
                            const BackendWorker& worker) {
  const obs::Labels labels{{"backend", std::to_string(worker.id())}};
  const auto& s = worker.stats();
  reg.counter_add("prord_live_backend_requests_total", labels,
                  static_cast<double>(s.requests.load()));
  reg.counter_add("prord_live_backend_cache_hits_total", labels,
                  static_cast<double>(s.cache_hits.load()));
  reg.counter_add("prord_live_backend_cache_misses_total", labels,
                  static_cast<double>(s.cache_misses.load()));
  reg.counter_add("prord_live_backend_dynamic_total", labels,
                  static_cast<double>(s.dynamic_served.load()));
  reg.counter_add("prord_live_backend_preloads_total", labels,
                  static_cast<double>(s.preloads.load()));
  reg.counter_add("prord_live_backend_bytes_out_total", labels,
                  static_cast<double>(s.bytes_out.load()));
  reg.counter_add("prord_live_backend_prefetch_requests_total", labels,
                  static_cast<double>(s.prefetch_requests.load()));
  reg.counter_add("prord_live_backend_prefetch_resident_total", labels,
                  static_cast<double>(s.prefetch_resident.load()));
  reg.counter_add("prord_live_backend_prefetch_loads_total", labels,
                  static_cast<double>(s.prefetch_loads.load()));
}

void append_predictor_service_metrics(obs::MetricRegistry& reg,
                                      const predict::IPredictor& predictor) {
  const predict::PredictorStats ps = predictor.stats();
  reg.set_help("prord_predict_feeds_total",
               "Observations accepted by the prediction service");
  reg.counter_add("prord_predict_feeds_total", {},
                  static_cast<double>(ps.feeds));
  reg.set_help("prord_predict_drops_total",
               "Observations dropped on a full feed queue");
  reg.counter_add("prord_predict_drops_total", {},
                  static_cast<double>(ps.drops));
  reg.counter_add("prord_predict_mine_passes_total", {},
                  static_cast<double>(ps.mine_passes));
  reg.counter_add("prord_predict_publishes_total", {},
                  static_cast<double>(ps.publishes));
  reg.counter_add("prord_predict_predictions_total", {},
                  static_cast<double>(ps.predictions));
  reg.gauge_set("prord_predict_links", static_cast<double>(ps.links));
  reg.set_help("prord_predict_table_rows",
               "Bounded-table occupancy by table");
  reg.gauge_set("prord_predict_table_rows", {{"table", "record"}},
                static_cast<double>(ps.record_rows));
  reg.gauge_set("prord_predict_table_rows", {{"table", "mining"}},
                static_cast<double>(ps.mining_rows));
  reg.gauge_set("prord_predict_table_rows", {{"table", "prefetch"}},
                static_cast<double>(ps.prefetch_rows));
  reg.gauge_set("prord_predict_algo",
                {{"algo", predict::algo_name(predictor.params().algo)}},
                1.0);
}

LiveWorkerSnapshot snapshot_worker(const BackendWorker& worker) {
  LiveWorkerSnapshot snap;
  const auto& s = worker.stats();
  snap.requests = s.requests.load();
  snap.cache_hits = s.cache_hits.load();
  snap.cache_misses = s.cache_misses.load();
  snap.dynamic_served = s.dynamic_served.load();
  snap.preloads = s.preloads.load();
  snap.bytes_out = s.bytes_out.load();
  snap.prefetch_requests = s.prefetch_requests.load();
  snap.prefetch_resident = s.prefetch_resident.load();
  snap.prefetch_loads = s.prefetch_loads.load();
  return snap;
}

std::string http_get(std::uint16_t port, std::string_view target) {
  Fd fd = connect_loopback(port);
  if (!fd) return {};
  const std::string req = format_request(target);
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd.get(), req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return {};
    }
    off += static_cast<std::size_t>(n);
  }
  ResponseParser parser;
  char buf[64 * 1024];
  while (true) {
    const ssize_t r = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return {};
    if (!parser.consume(std::string_view(buf, static_cast<std::size_t>(r))))
      return {};
    if (auto resp = parser.pop()) return std::string(resp->body);
  }
}

bool prepare_live_setup(const LiveConfig& config, LiveSetup& out) {
  // --- Workload + site (mirrors run_experiment steps 1-3). ---
  core::ExperimentConfig& cfg = out.cfg;
  cfg.workload = config.workload;
  cfg.policy = config.policy;
  cfg.params.num_backends = config.backends;
  cfg.memory_fraction = config.memory_fraction;
  cfg.pinned_fraction = config.pinned_fraction;
  cfg.prefetch_threshold = config.prefetch_threshold;
  cfg.replication_interval = config.replication_interval;

  if (!config.clf_path.empty()) {
    std::ifstream in(config.clf_path);
    if (!in) return false;
    trace::ClfParser parser;
    const auto records = parser.parse_stream(in);
    if (records.empty()) return false;
    out.eval = trace::build_workload(records);
    // One real log: the mining pass and the replay share it.
    out.train = trace::build_workload(records);
    out.site_bytes = out.eval.files.total_bytes();
    out.workload_name = config.clf_path;
  } else {
    const trace::SiteModel site = trace::build_site(cfg.workload.site);
    const trace::GeneratedTrace eval_trace =
        trace::generate_trace(site, cfg.workload.gen);
    auto train_gen = cfg.workload.gen;
    train_gen.seed += cfg.train_seed_offset;
    const trace::GeneratedTrace train_trace =
        trace::generate_trace(site, train_gen);
    out.train = trace::build_workload(train_trace.records);
    out.eval = trace::build_workload(eval_trace.records, {}, out.train.files);
    out.site_bytes = site.total_bytes();
    out.workload_name = cfg.workload.name;
  }

  out.mining = cfg.mining;
  out.mining.prefetch_threshold = cfg.prefetch_threshold;
  if (core::policy_uses_mining(cfg.policy)) {
    out.model = std::make_shared<logmining::MiningModel>(out.train.requests,
                                                         out.mining);
  }

  // --- Cache sizing (same formula as the sim experiments). ---
  out.capacity =
      cfg.memory_fraction > 0
          ? static_cast<std::uint64_t>(cfg.memory_fraction *
                                       static_cast<double>(out.site_bytes) /
                                       cfg.params.num_backends)
          : cfg.params.app_memory_bytes;
  out.capacity = std::max<std::uint64_t>(out.capacity, 64 * 1024);
  out.pinned = 0;
  if (core::policy_uses_mining(cfg.policy)) {
    out.pinned = static_cast<std::uint64_t>(
        cfg.pinned_fraction * static_cast<double>(out.capacity));
    out.pinned = std::min(out.pinned, cfg.params.pinned_memory_bytes);
  }
  out.demand = out.capacity - out.pinned;
  return true;
}

LiveRunResult run_live(const LiveConfig& config) {
  LiveRunResult result;

  LiveSetup setup;
  if (!prepare_live_setup(config, setup)) return result;
  result.workload = setup.workload_name;
  result.policy = core::policy_label(setup.cfg.policy);
  const core::ExperimentConfig& cfg = setup.cfg;
  trace::Workload& eval = setup.eval;
  const std::shared_ptr<logmining::MiningModel>& model = setup.model;
  const std::uint64_t capacity = setup.capacity;
  const std::uint64_t pinned = setup.pinned;
  const std::uint64_t demand = setup.demand;

  // --- Assemble: workers, belief router, distributor. ---
  // Arm the flight recorder before any serving thread starts, so every
  // thread names its ring on entry.
  if (config.flight_recorder || !config.flight_dump_path.empty())
    obs::FlightRecorder::instance().enable(config.flight_ring_capacity);
  SiteStore store(eval.files);
  std::vector<std::unique_ptr<BackendWorker>> workers;
  std::vector<BackendWorker*> worker_ptrs;
  workers.reserve(config.backends);
  for (std::uint32_t i = 0; i < config.backends; ++i) {
    workers.push_back(std::make_unique<BackendWorker>(i, store, capacity));
    if (!workers.back()->start()) {
      for (auto& w : workers) w->stop();
      return result;
    }
    worker_ptrs.push_back(workers.back().get());
  }

  LiveRouter router(cfg, model, eval.files, demand, pinned);
  // Mirror the policy's proactive placements (prefetch directives,
  // Algorithm 3 replicas) from the belief caches into the real workers.
  for (std::uint32_t i = 0; i < config.backends; ++i) {
    BackendWorker* w = worker_ptrs[i];
    router.cluster().backend(i).set_proactive_observer(
        [w](trace::FileId file, std::uint32_t bytes, bool pin) {
          w->preload(file, bytes, pin);
        });
  }

  // Live prediction service (docs/PREDICTOR.md): runs its own mining
  // thread; the distributor feeds it and issues the prefetches.
  std::unique_ptr<predict::IPredictor> predictor;
  if (config.prefetch) {
    predictor = predict::make_prediction_service(config.predictor, model);
    predictor->start();
  }

  Distributor dist(router, store, worker_ptrs, config.port);
  if (predictor) {
    dist.set_predictor(predictor.get(), config.predictor.confidence,
                       config.predictor.max_associations);
  }
  DistributorObsOptions obs_opts;
  obs_opts.trace_sample_rate = config.trace_sample_rate;
  obs_opts.trace_seed = config.trace_seed;
  obs_opts.max_spans = config.max_spans;
  obs_opts.slo = config.slo;
  obs_opts.flight_dump_path = config.flight_dump_path;
  dist.configure_obs(obs_opts);
  dist.set_metrics_provider([&dist, &router, &workers, &predictor] {
    // Runs on the distributor thread — LiveRouter access is safe there.
    return obs::to_prometheus(
        build_registry(dist, router.core(), workers, nullptr,
                       predictor.get()));
  });
  if (!dist.start()) {
    for (auto& w : workers) w->stop();
    return result;
  }
  result.started = true;

  // --- Replay the workload from this thread. ---
  LoadGenOptions lg;
  lg.port = dist.port();
  lg.concurrency = config.concurrency;
  lg.total_requests = config.requests;
  lg.pipeline_depth = config.pipeline_depth;
  lg.open_loop = config.open_loop;
  lg.time_scale = config.time_scale;
  lg.idle_timeout_us = config.idle_timeout_us;
  LoadGenerator gen(eval, lg);
  result.load = gen.run();

  // Scrape /metrics and /slo over real sockets while the distributor
  // still runs.
  result.metrics_scrape = http_get(dist.port(), "/metrics");
  result.slo_scrape = http_get(dist.port(), "/slo");

  dist.stop();
  for (auto& w : workers) w->stop();
  if (predictor) predictor->stop();  // final drain + publish

  // --- Consolidate. ---
  const auto& c = dist.counters();
  result.dist_requests = c.requests.load();
  result.dist_responses = c.responses.load();
  result.dist_failures = c.failures.load();
  result.dist_not_found = c.not_found.load();
  result.dist_parse_errors = c.parse_errors.load();
  const auto& core = router.core();
  result.routed = core.routed();
  result.dispatches = core.dispatches();
  result.handoffs = core.handoffs();
  result.forwards = core.forwards();
  for (const auto& w : workers) result.workers.push_back(snapshot_worker(*w));

  if (predictor) {
    result.prefetch_enabled = true;
    result.prefetch_algo = predict::algo_name(config.predictor.algo);
    result.prefetch_issued = c.prefetch_issued.load();
    result.prefetch_responses = c.prefetch_responses.load();
    result.prefetch_hits = c.prefetch_hits.load();
    result.prefetch_wasted = c.prefetch_wasted.load();
    result.predict_drops = c.predict_drops.load();
    result.predictor = predictor->stats();
  }

  // --- Observability consolidation. ---
  result.spans = dist.spans();
  result.trace_spans = c.trace_spans.load();
  result.trace_dropped = c.trace_dropped.load();
  result.slo_violations = c.slo_violations.load();
  result.flight_dumps = c.flight_dumps.load();
  result.slo = dist.slo().evaluate(dist.elapsed_us());
  if (!config.trace_out.empty()) {
    std::ofstream out(config.trace_out, std::ios::trunc);
    for (const obs::LiveSpan& span : result.spans) {
      obs::write_live_span_json(out, span);
      out << '\n';
    }
  }

  result.registry =
      build_registry(dist, core, workers, &result.load, predictor.get());
  return result;
}

}  // namespace prord::net
