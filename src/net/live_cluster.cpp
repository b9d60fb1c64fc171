#include "net/live_cluster.h"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "net/backend_worker.h"
#include "net/distributor.h"
#include "net/live_router.h"
#include "net/sharded_frontend.h"
#include "net/site_store.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "trace/clf.h"
#include "trace/generator.h"
#include "trace/site_model.h"
#include "trace/workload.h"
#include "util/json.h"

namespace prord::net {
namespace {

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

/// The prediction-service-side prord_predict_* metrics (feed, mining,
/// table occupancy — not the distributor's prefetch counters).
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

using Counter = std::atomic<std::uint64_t> DistributorCounters::*;

/// One distributor counter summed over every shard (atomic reads, safe
/// from any thread).
double shard_sum(const ShardedFrontend& fe, Counter counter) {
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < fe.shards(); ++s)
    sum += (fe.shard(s).counters().*counter).load();
  return static_cast<double>(sum);
}

/// Snapshot of the whole front end into one registry: the same series at
/// every shard count. Called live by shard `serving`'s /metrics provider,
/// on that shard's thread, with `load` null: the serving shard reads its
/// own RoutingCore, and its peers' routing counters come from the gossip
/// board (at most one gossip interval old; it carries no per-path
/// breakdown, so prord_live_routes_via_total is left out while a peer is
/// read from it). Called once more after stop() with `load` set: every
/// shard's core is read exactly, and the client and per-hop series are
/// added. The SLO gauges evaluate the serving shard's own monitor.
obs::MetricRegistry build_registry(const ShardedFrontend& fe,
                                   std::uint32_t serving,
                                   const LoadGenResult* load) {
  obs::MetricRegistry reg;
  const std::uint32_t n = fe.shards();
  const ShardedFrontendOptions& opts = fe.options();

  // Per-shard ledger. Routing commits and gossip publishes are shard
  // thread state: exact for the serving shard (and for all after the
  // run), gossiped for the rest.
  std::uint64_t routed = 0, dispatches = 0, handoffs = 0, forwards = 0;
  std::array<std::uint64_t, obs::kNumRouteVia> via{};
  bool via_exact = true;
  reg.set_help("prord_live_shard_requests_total",
               "Client requests parsed, by front-end shard");
  reg.set_help("prord_live_shard_routed_total",
               "RoutingCore commits, by front-end shard");
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto& c = fe.shard(s).counters();
    const obs::Labels labels{{"shard", std::to_string(s)}};
    reg.counter_add("prord_live_shard_requests_total", labels,
                    static_cast<double>(c.requests.load()));
    reg.counter_add("prord_live_shard_responses_total", labels,
                    static_cast<double>(c.responses.load()));
    reg.counter_add("prord_live_shard_failures_total", labels,
                    static_cast<double>(c.failures.load()));
    reg.counter_add("prord_live_shard_accepts_total", labels,
                    static_cast<double>(c.accepts.load()));
    reg.counter_add("prord_live_shard_adopted_total", labels,
                    static_cast<double>(c.adopted.load()));
    reg.counter_add("prord_live_shard_trace_spans_total", labels,
                    static_cast<double>(c.trace_spans.load()));
    reg.counter_add("prord_live_shard_slo_violations_total", labels,
                    static_cast<double>(c.slo_violations.load()));

    ShardLoadSnapshot snap;
    if (load != nullptr || s == serving) {
      const core::RoutingCore& core = fe.router(s).core();
      snap.routed = core.routed();
      snap.dispatches = core.dispatches();
      snap.handoffs = core.handoffs();
      snap.forwards = core.forwards();
      snap.version = fe.gossip_stats(s).publishes;
      for (unsigned v = 0; v < obs::kNumRouteVia; ++v)
        via[v] += core.routes_via()[v];
    } else {
      // Unpublished or torn: the snapshot stays zero.
      (void)fe.board().read(s, snap);
      via_exact = false;
    }
    routed += snap.routed;
    dispatches += snap.dispatches;
    handoffs += snap.handoffs;
    forwards += snap.forwards;
    reg.counter_add("prord_live_shard_routed_total", labels,
                    static_cast<double>(snap.routed));
    reg.counter_add("prord_scale_gossip_publishes_total", labels,
                    static_cast<double>(snap.version));
  }

  reg.set_help("prord_live_requests_total",
               "Client requests parsed by the front end (all shards)");
  reg.counter_add("prord_live_requests_total", {},
                  shard_sum(fe, &DistributorCounters::requests));
  reg.counter_add("prord_live_responses_total", {},
                  shard_sum(fe, &DistributorCounters::responses));
  reg.counter_add("prord_live_failures_total", {},
                  shard_sum(fe, &DistributorCounters::failures));
  reg.counter_add("prord_live_not_found_total", {},
                  shard_sum(fe, &DistributorCounters::not_found));
  reg.counter_add("prord_live_parse_errors_total", {},
                  shard_sum(fe, &DistributorCounters::parse_errors));
  reg.counter_add("prord_live_metrics_scrapes_total", {},
                  shard_sum(fe, &DistributorCounters::metrics_scrapes));

  reg.set_help("prord_live_routed_total",
               "Requests committed through the shared RoutingCore");
  reg.counter_add("prord_live_routed_total", {}, static_cast<double>(routed));
  reg.counter_add("prord_live_dispatches_total", {},
                  static_cast<double>(dispatches));
  reg.counter_add("prord_live_handoffs_total", {},
                  static_cast<double>(handoffs));
  reg.counter_add("prord_live_forwards_total", {},
                  static_cast<double>(forwards));
  if (via_exact) {
    for (unsigned v = 0; v < obs::kNumRouteVia; ++v) {
      reg.counter_add(
          "prord_live_routes_via_total",
          {{"via", obs::route_via_name(static_cast<obs::RouteVia>(v))}},
          static_cast<double>(via[v]));
    }
  }

  // Accept path (storms are visible, not silent).
  reg.set_help("prord_live_accepts_total",
               "Connections accepted across all shards");
  reg.counter_add("prord_live_accepts_total", {},
                  shard_sum(fe, &DistributorCounters::accepts));
  reg.counter_add("prord_live_accept_bursts_total", {},
                  shard_sum(fe, &DistributorCounters::accept_bursts));
  reg.counter_add("prord_live_accept_eagain_total", {},
                  shard_sum(fe, &DistributorCounters::accept_eagain));
  reg.counter_add("prord_live_accept_emfile_total", {},
                  shard_sum(fe, &DistributorCounters::accept_emfile));
  reg.counter_add("prord_live_handoff_out_total", {},
                  shard_sum(fe, &DistributorCounters::handoff_out));
  reg.counter_add("prord_live_adopted_total", {},
                  shard_sum(fe, &DistributorCounters::adopted));

  reg.set_help("prord_scale_shards", "Front-end distributor shard count");
  reg.gauge_set("prord_scale_shards", static_cast<double>(n));
  reg.gauge_set("prord_scale_reuseport", fe.reuseport_used() ? 1.0 : 0.0);

  for (const BackendWorker* w : fe.workers()) append_backend_metrics(reg, *w);

  // Prediction subsystem (docs/PREDICTOR.md), present when the live
  // prefetch seam is armed.
  if (opts.predictor != nullptr) {
    append_predictor_service_metrics(reg, *opts.predictor);
    reg.set_help("prord_predict_prefetch_issued_total",
                 "Cache-warming requests sent to backend workers");
    reg.counter_add("prord_predict_prefetch_issued_total", {},
                    shard_sum(fe, &DistributorCounters::prefetch_issued));
    reg.counter_add("prord_predict_prefetch_responses_total", {},
                    shard_sum(fe, &DistributorCounters::prefetch_responses));
    reg.set_help("prord_predict_prefetch_hits_total",
                 "Client cache hits on files the front end prefetched");
    reg.counter_add("prord_predict_prefetch_hits_total", {},
                    shard_sum(fe, &DistributorCounters::prefetch_hits));
    reg.counter_add("prord_predict_prefetch_wasted_total", {},
                    shard_sum(fe, &DistributorCounters::prefetch_wasted));
    reg.counter_add("prord_predict_queue_drop_events_total", {},
                    shard_sum(fe, &DistributorCounters::predict_drops));
  }

  // Tracing + SLO posture (docs/OBSERVABILITY.md).
  reg.set_help("prord_live_trace_spans_total",
               "Completed live hop spans retained by the front end");
  reg.counter_add("prord_live_trace_spans_total", {},
                  shard_sum(fe, &DistributorCounters::trace_spans));
  reg.counter_add("prord_live_trace_dropped_total", {},
                  shard_sum(fe, &DistributorCounters::trace_dropped));
  reg.gauge_set("prord_live_trace_sample_rate", opts.obs.trace_sample_rate);

  const Distributor& self = fe.shard(serving);
  const obs::SloEval slo = self.slo().evaluate(self.elapsed_us());
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
                  shard_sum(fe, &DistributorCounters::slo_violations));
  reg.counter_add("prord_live_flight_dumps_total", {},
                  shard_sum(fe, &DistributorCounters::flight_dumps));
  reg.gauge_set("prord_live_slo_latency_objective_us",
                static_cast<double>(opts.obs.slo.latency_objective_us));
  reg.gauge_set("prord_live_slo_availability_objective",
                opts.obs.slo.availability_objective);

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
    for (std::uint32_t s = 0; s < n; ++s) {
      for (const obs::LiveSpan& span : fe.shard(s).spans()) {
        for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
          reg.stats_add("prord_live_hop_us",
                        {{"hop", obs::live_hop_name(
                                     static_cast<obs::LiveHop>(h))}},
                        static_cast<double>(span.hop_us[h]));
        }
      }
    }
  }
  return reg;
}

/// GET /slo body, served by shard `serving` on its own thread: that
/// shard's burn-rate evaluation at top level, beside the shard count and
/// the request ledger in aggregate and per shard (atomic counters).
std::string slo_body(const ShardedFrontend& fe, std::uint32_t serving) {
  static constexpr Counter kLedger[] = {
      &DistributorCounters::requests, &DistributorCounters::responses,
      &DistributorCounters::failures, &DistributorCounters::slo_violations};
  static constexpr const char* kKeys[] = {"requests", "responses", "failures",
                                          "slo_violations"};
  const Distributor& self = fe.shard(serving);
  util::JsonValue doc = self.slo().to_json_value(self.elapsed_us());
  util::JsonValue per_shard = util::JsonValue::array();
  for (std::uint32_t s = 0; s < fe.shards(); ++s) {
    util::JsonValue shard = util::JsonValue::object();
    shard.set("shard", std::uint64_t{s});
    for (std::size_t k = 0; k < std::size(kLedger); ++k)
      shard.set(kKeys[k], (fe.shard(s).counters().*kLedger[k]).load());
    per_shard.push_back(std::move(shard));
  }
  util::JsonValue aggregate = util::JsonValue::object();
  for (std::size_t k = 0; k < std::size(kLedger); ++k)
    aggregate.set(kKeys[k], shard_sum(fe, kLedger[k]));
  doc.set("shards", std::uint64_t{fe.shards()});
  doc.set("serving_shard", std::uint64_t{serving});
  doc.set("aggregate", std::move(aggregate));
  doc.set("per_shard", std::move(per_shard));
  return doc.dump(/*pretty=*/false);
}

/// Replays the workload against `port`. `load_threads` generators (0 =
/// one per shard) split the connections and the request budget
/// (split_load); the first runs on the calling thread, and when it is the
/// only one its result is returned as is.
LoadGenResult replay(const trace::Workload& eval, const LiveConfig& config,
                     std::uint16_t port, std::uint32_t shards) {
  LoadGenOptions whole;
  whole.port = port;
  whole.concurrency = config.concurrency;
  whole.total_requests = config.requests;
  whole.pipeline_depth = config.pipeline_depth;
  whole.open_loop = config.open_loop;
  whole.time_scale = config.time_scale;
  whole.idle_timeout_us = config.idle_timeout_us;
  const std::size_t total_requests =
      config.requests > 0 ? config.requests : eval.requests.size();
  const std::size_t threads = std::clamp<std::size_t>(
      config.load_threads == 0 ? shards : config.load_threads, 1,
      std::max<std::size_t>(1, std::min(total_requests, config.concurrency)));
  if (threads == 1) return LoadGenerator(eval, whole).run();
  const auto slice = [&](std::size_t t) {
    const LoadGenOptions lg = split_load(eval, whole, t, threads);
    if (lg.total_requests == 0) return LoadGenResult{};
    LoadGenerator gen(eval, lg);
    return gen.run();
  };

  // A single generator thread saturates near one core and would become
  // the bottleneck it is supposed to create.
  std::vector<LoadGenResult> slices(threads);
  const auto t_start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> peers;  // joined at scope exit
    peers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t)
      peers.emplace_back([&slices, &slice, t] { slices[t] = slice(t); });
    slices[0] = slice(0);
  }
  LoadGenResult load;
  for (const LoadGenResult& s : slices) {
    load.issued += s.issued;
    load.completed += s.completed;
    load.failed += s.failed;
    load.status_ok += s.status_ok;
    load.status_error += s.status_error;
    load.bytes_in += s.bytes_in;
    load.latency_us.merge(s.latency_us);
    load.latency_hist.merge(s.latency_hist);
  }
  load.duration_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t_start)
                        .count();
  return load;
}

}  // namespace

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
  const std::uint32_t shards = std::max<std::uint32_t>(1, config.shards);
  result.shard_count = shards;

  // Arm the flight recorder before any serving thread starts, so every
  // thread names its ring on entry.
  if (config.flight_recorder || !config.flight_dump_path.empty())
    obs::FlightRecorder::instance().enable(config.flight_ring_capacity);

  // --- Workers, shared by every shard (their stats are atomic). ---
  SiteStore store(setup.eval.files);
  std::vector<std::unique_ptr<BackendWorker>> workers;
  std::vector<BackendWorker*> worker_ptrs;
  workers.reserve(config.backends);
  for (std::uint32_t i = 0; i < config.backends; ++i) {
    workers.push_back(
        std::make_unique<BackendWorker>(i, store, setup.capacity));
    if (!workers.back()->start()) {
      for (auto& w : workers) w->stop();
      return result;
    }
    worker_ptrs.push_back(workers.back().get());
  }

  // --- One private belief router per shard. PRORD's policy mutates its
  // mining model (popularity tracking), so every shard past the first
  // builds its own copy from the same training trace: identical priors,
  // independent evolution — the per-shard "PRORD placement view".
  std::vector<std::unique_ptr<LiveRouter>> routers;
  std::vector<LiveRouter*> router_ptrs;
  routers.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::shared_ptr<logmining::MiningModel> model = setup.model;
    if (s > 0 && setup.model) {
      model = std::make_shared<logmining::MiningModel>(setup.train.requests,
                                                       setup.mining);
    }
    routers.push_back(std::make_unique<LiveRouter>(
        setup.cfg, model, setup.eval.files, setup.demand, setup.pinned));
    router_ptrs.push_back(routers.back().get());
    // Mirror the policy's proactive placements (prefetch directives,
    // Algorithm 3 replicas) from the belief caches into the real workers.
    for (std::uint32_t b = 0; b < config.backends; ++b) {
      BackendWorker* w = worker_ptrs[b];
      routers.back()->cluster().backend(b).set_proactive_observer(
          [w](trace::FileId file, std::uint32_t, bool) { w->preload(file); });
    }
  }

  // Live prediction service (docs/PREDICTOR.md): runs its own mining
  // thread; every shard feeds it over its own link and issues the
  // prefetches.
  std::unique_ptr<predict::IPredictor> predictor;
  if (config.prefetch) {
    predictor = predict::make_prediction_service(config.predictor,
                                                 setup.model);
    predictor->start();
  }

  // --- The front end: `shards` distributors behind one port. ---
  ShardedFrontendOptions fo;
  fo.shards = shards;
  fo.port = config.port;
  fo.allow_reuseport = config.reuseport;
  fo.gossip.interval_us = config.gossip_interval_us;
  fo.gossip.staleness_us = config.gossip_staleness_us;
  fo.obs.trace_sample_rate = config.trace_sample_rate;
  fo.obs.trace_seed = config.trace_seed;
  fo.obs.max_spans = config.max_spans;
  fo.obs.slo = config.slo;
  fo.obs.flight_dump_path = config.flight_dump_path;
  fo.predictor = predictor.get();
  fo.prefetch_min_confidence = config.predictor.confidence;
  fo.prefetch_fanout = config.predictor.max_associations;
  ShardedFrontend fe(router_ptrs, store, worker_ptrs, fo);
  fe.set_providers(
      [&fe](std::uint32_t s) {
        return [&fe, s] {
          return obs::to_prometheus(build_registry(fe, s, nullptr));
        };
      },
      [&fe](std::uint32_t s) { return [&fe, s] { return slo_body(fe, s); }; });
  if (!fe.start()) {
    for (auto& w : workers) w->stop();
    if (predictor) predictor->stop();
    return result;
  }
  result.started = true;
  result.reuseport_used = fe.reuseport_used();

  result.load = replay(setup.eval, config, fe.port(), shards);

  // Scrape /metrics and /slo over real sockets while the shards run.
  result.metrics_scrape = http_get(fe.port(), "/metrics");
  result.slo_scrape = http_get(fe.port(), "/slo");

  fe.stop();  // joins every shard thread; core reads are exact below
  for (auto& w : workers) w->stop();
  if (predictor) predictor->stop();  // final drain + publish

  // --- Consolidate. ---
  for (std::uint32_t s = 0; s < shards; ++s) {
    const LiveShardSnapshot snap = fe.snapshot(s);
    result.shards.push_back(snap);
    result.dist_requests += snap.requests;
    result.dist_responses += snap.responses;
    result.dist_failures += snap.failures;
    result.dist_not_found += snap.not_found;
    result.trace_spans += snap.trace_spans;
    result.slo_violations += snap.slo_violations;
    const auto& c = fe.shard(s).counters();
    result.dist_parse_errors += c.parse_errors.load();
    result.trace_dropped += c.trace_dropped.load();
    result.flight_dumps += c.flight_dumps.load();
    const core::RoutingCore& core = routers[s]->core();
    result.routed += core.routed();
    result.dispatches += core.dispatches();
    result.handoffs += core.handoffs();
    result.forwards += core.forwards();
    const std::vector<obs::LiveSpan>& spans = fe.shard(s).spans();
    result.spans.insert(result.spans.end(), spans.begin(), spans.end());
    if (predictor) {
      result.prefetch_issued += c.prefetch_issued.load();
      result.prefetch_responses += c.prefetch_responses.load();
      result.prefetch_hits += c.prefetch_hits.load();
      result.prefetch_wasted += c.prefetch_wasted.load();
      result.predict_drops += c.predict_drops.load();
    }
  }
  for (const auto& w : workers) result.workers.push_back(snapshot_worker(*w));
  if (predictor) {
    result.prefetch_enabled = true;
    result.prefetch_algo = predict::algo_name(config.predictor.algo);
    result.predictor = predictor->stats();
  }
  // Shard 0's monitor stands in for the final burn-rate posture (each
  // shard evaluates only its own traffic; the /slo body carries all).
  result.slo = fe.shard(0).slo().evaluate(fe.shard(0).elapsed_us());

  if (!config.trace_out.empty()) {
    std::ofstream out(config.trace_out, std::ios::trunc);
    for (const obs::LiveSpan& span : result.spans) {
      obs::write_live_span_json(out, span);
      out << '\n';
    }
  }

  result.registry = build_registry(fe, 0, &result.load);
  return result;
}

}  // namespace prord::net
