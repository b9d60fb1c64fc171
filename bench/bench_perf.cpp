// Hot-path perf harness: the producer of BENCH_sim.json / BENCH_live.json.
//
// Unlike the figure benches (which reproduce paper *results*), this binary
// measures the simulator and the live loopback cluster themselves. Each
// pinned scenario runs once. The report records events/sec, req/s, p50/p99
// response times, and allocations counted by the global operator new of
// tests/support/counting_new.cpp, which this binary links: a scenario
// snapshots the process-wide count around its run, so the figure includes
// everything the run allocates (events, closures, records, strings).
//
// Gates (docs/PERF.md):
//   --pin=PATH               every sim scenario of the BENCH_sim.json at
//                            PATH must reproduce its sim_events exactly and
//                            stay at or below its allocations. Both counts
//                            are deterministic, so the gate cannot flake.
//   --max-trace-overhead=F   live req/s lost to 1% tracing, at most F.
//   --min-prefetch-hit-gain=X  live worker hit rate, prefetch on / off.
// A set gate fails when its ratio cannot be measured (a live cell that
// served nothing). A live cell that fails to start, and a report that
// breaks core::report_violations' rules, fail the run too; such a report
// is not written. Exit codes: 0 pass, 1 failure, 2 usage error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/perf_report.h"
#include "net/live_cluster.h"
#include "support/counting_new.h"
#include "trace/models.h"
#include "util/json.h"
#include "zoo/scenario_registry.h"

namespace {

using namespace prord;

// ---------------------------------------------------------------------------
// Pinned scenarios. Configs must not drift run-to-run — trajectory entries
// in docs/PERF.md are only comparable if the workload stays fixed.
// ---------------------------------------------------------------------------

core::ExperimentConfig fig8_config() {
  // One cell of the Fig. 8 memory sweep: the paper's standing assumption
  // (~30% of the site in memory) under PRORD on the CS-department trace.
  core::ExperimentConfig config;
  config.workload = trace::cs_dept_spec();
  config.policy = core::PolicyKind::kPrord;
  config.memory_fraction = 0.30;
  config.obs.metrics = true;
  return config;
}

core::ExperimentConfig drift_config() {
  // bench_adaptation's drift-harsh/adaptive cell: online re-mining keeps
  // the epoch timer, sessionizer, and model publishes on the hot path.
  core::ExperimentConfig config;
  config.workload = trace::synthetic_spec();
  config.workload.gen.drift = {.phases = 8, .rotation = 0.6,
                               .flash_multiplier = 3.0,
                               .flash_duration_sec = 200.0};
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  config.adapt.enabled = true;
  config.adapt.epoch = sim::sec(600.0);
  config.adapt.window = sim::sec(500.0);
  config.adapt.popularity_halflife_s = 1200.0;
  return config;
}

// Workload-zoo scenarios (src/zoo/): the three builtin profiles as pinned
// perf cells. Same determinism rule as above — the builtins are frozen
// artifacts (examples/profiles/*.json, CI-diffed), so the cells stay
// comparable across runs. Requests are capped so each cell costs roughly
// one fig8 cell.
core::ExperimentConfig zoo_config(const char* name) {
  core::ExperimentConfig config;
  config.workload = zoo::to_workload_spec(zoo::builtin_profile(name));
  config.workload.gen.target_requests =
      std::min<std::size_t>(config.workload.gen.target_requests, 30'000);
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  return config;
}

core::ExperimentConfig zoo_cdn_flash_config() {
  return zoo_config("cdn-flash");
}
core::ExperimentConfig zoo_api_gateway_config() {
  return zoo_config("api-gateway");
}
core::ExperimentConfig zoo_ecommerce_config() {
  return zoo_config("ecommerce-diurnal");
}

core::ExperimentConfig fault_config() {
  // bench_fault_tolerance's pinned schedule: crash srv1 an hour in,
  // restart an hour later — exercises retries, heartbeats, and re-warm.
  core::ExperimentConfig config;
  config.workload = trace::cs_dept_spec();
  config.policy = core::PolicyKind::kPrord;
  config.obs.metrics = true;
  config.faults.plan = "crash@3600s:srv1,restart@7200s:srv1";
  config.faults.heartbeat_interval = sim::sec(30.0);
  config.faults.max_retries = 3;
  return config;
}

// Live loopback burst: small enough to finish in seconds, large enough
// that socket + router throughput dominates setup.
net::LiveConfig live_config() {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = 4;
  config.requests = 30'000;
  config.concurrency = 16;
  config.workload = trace::synthetic_spec();
  return config;
}

core::PerfScenario run_sim_scenario(const std::string& name,
                                    const core::ExperimentConfig& config) {
  core::PerfScenario s;
  s.name = name;
  std::fprintf(stderr, "[bench_perf] %s...\n", name.c_str());

  const std::uint64_t allocs0 = test_support::process_allocs();
  s.t_start_ms = core::unix_now_ms();
  const auto t0 = std::chrono::steady_clock::now();
  const core::ExperimentResult result = core::run_experiment(config);
  const auto t1 = std::chrono::steady_clock::now();
  s.t_end_ms = core::unix_now_ms();
  s.allocations = test_support::process_allocs() - allocs0;

  s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  s.sim_wall_seconds = result.sim_wall_seconds;
  s.sim_events = result.sim_events;
  // Events/sec over the sim loop only: setup (site/trace generation,
  // offline mining) would dilute the hot-path rate.
  s.events_per_sec = s.sim_wall_seconds > 0
                         ? static_cast<double>(s.sim_events) /
                               s.sim_wall_seconds
                         : 0.0;
  s.requests = result.num_requests;
  s.requests_per_sec = result.throughput_rps();  // simulated-time rate
  s.p50_response_ms =
      static_cast<double>(result.metrics.response_hist.p50()) / 1000.0;
  s.p99_response_ms =
      static_cast<double>(result.metrics.response_hist.p99()) / 1000.0;
  s.allocations_per_event =
      s.sim_events ? static_cast<double>(s.allocations) /
                         static_cast<double>(s.sim_events)
                   : 0.0;
  return s;
}

/// One live loopback run. `trace_sample_rate` > 0 measures the tracing
/// tax: the traced scenario divides by the untraced one to produce the
/// live_tracing_rps_ratio gate (docs/OBSERVABILITY.md). Empty when the
/// cluster failed to start.
std::optional<core::PerfScenario> run_live_scenario(const std::string& name,
                                                    double trace_sample_rate) {
  core::PerfScenario s;
  s.name = name;
  s.shards = 1;  // run_live is always a single distributor shard
  std::fprintf(stderr, "[bench_perf] %s...\n", name.c_str());

  net::LiveConfig config = live_config();
  config.trace_sample_rate = trace_sample_rate;
  const std::uint64_t allocs0 = test_support::process_allocs();
  s.t_start_ms = core::unix_now_ms();
  const net::LiveRunResult result = net::run_live(config);
  s.t_end_ms = core::unix_now_ms();
  s.allocations = test_support::process_allocs() - allocs0;

  if (!result.started) return std::nullopt;
  s.wall_seconds = result.load.duration_s;
  s.requests = result.load.completed;
  s.requests_per_sec = result.load.throughput_rps();  // wall-clock rate
  s.p50_response_ms =
      static_cast<double>(result.load.latency_hist.p50()) / 1000.0;
  s.p99_response_ms =
      static_cast<double>(result.load.latency_hist.p99()) / 1000.0;
  // No simulator here: normalize allocations per completed request.
  s.allocations_per_event =
      s.requests ? static_cast<double>(s.allocations) /
                       static_cast<double>(s.requests)
                 : 0.0;
  return s;
}

// Live prefetch A/B (docs/PREDICTOR.md): the same paced run with the
// prediction service off vs. on. LARD-bundle is the substrate — bundle
// forwarding keeps each connection pinned to the back-end the prefetches
// warmed, but unlike full PRORD the policy itself never preloads, so any
// cache-hit gain is attributable to the X-Prord-Prefetch path. The open
// loop gives issued prefetches wall-clock lead over the client's next
// request (a saturated closed loop races them and loses), and the small
// cache keeps the LRU churning so converted misses are visible.
net::LiveConfig live_prefetch_config() {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kLardBundle;
  config.backends = 4;
  config.requests = 12'000;
  config.concurrency = 16;
  config.open_loop = true;
  config.time_scale = 400.0;
  config.memory_fraction = 0.02;
  config.workload = trace::synthetic_spec();
  return config;
}

struct LivePrefetchCell {
  core::PerfScenario scenario;
  double worker_hit_rate = 0.0;
  double waste_ratio = 0.0;
  std::uint64_t issued = 0;
};

/// Empty when the cluster failed to start.
std::optional<LivePrefetchCell> run_live_prefetch_cell(const std::string& name,
                                                       bool prefetch_on) {
  LivePrefetchCell cell;
  core::PerfScenario& s = cell.scenario;
  s.name = name;
  s.shards = 1;
  std::fprintf(stderr, "[bench_perf] %s...\n", name.c_str());

  net::LiveConfig config = live_prefetch_config();
  if (prefetch_on) {
    config.prefetch = true;
    config.predictor.algo = predict::Algo::kMithril;
    config.predictor.confidence = 0.1;
    config.predictor.max_associations = 8;
  }
  const std::uint64_t allocs0 = test_support::process_allocs();
  s.t_start_ms = core::unix_now_ms();
  const net::LiveRunResult result = net::run_live(config);
  s.t_end_ms = core::unix_now_ms();
  s.allocations = test_support::process_allocs() - allocs0;

  if (!result.started) return std::nullopt;
  s.wall_seconds = result.load.duration_s;
  s.requests = result.load.completed;
  s.requests_per_sec = result.load.throughput_rps();
  s.p50_response_ms =
      static_cast<double>(result.load.latency_hist.p50()) / 1000.0;
  s.p99_response_ms =
      static_cast<double>(result.load.latency_hist.p99()) / 1000.0;
  s.allocations_per_event =
      s.requests ? static_cast<double>(s.allocations) /
                       static_cast<double>(s.requests)
                 : 0.0;
  cell.worker_hit_rate = result.worker_hit_rate();
  cell.waste_ratio = result.prefetch_waste_ratio();
  cell.issued = result.prefetch_issued;
  return cell;
}

struct Options {
  std::string out_dir = ".";
  /// Parsed BENCH_sim.json to pin the sim counters to. Read before any
  /// report is written, so --out-dir may overwrite the pinned file.
  std::optional<util::JsonValue> pin;
  /// Max share of live req/s that 1% trace sampling may cost.
  std::optional<double> max_trace_overhead;
  /// Min cache-hit-rate ratio, prefetch on / off. 1.0 asserts "prefetch
  /// never hurts"; CI stays report-only because a loaded runner can
  /// starve the paced open loop.
  std::optional<double> min_prefetch_hit_gain;
  bool skip_live = false;
};

/// Strict flag value: a whole finite number >= 0, nothing after it.
std::optional<double> parse_bound(std::string_view flag,
                                  std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(v) || v < 0) {
    std::fprintf(stderr,
                 "bench_perf: %.*s needs a number >= 0, got '%s'\n",
                 static_cast<int>(flag.size()), flag.data(), value.c_str());
    return std::nullopt;
  }
  return v;
}

std::optional<util::JsonValue> load_pin(std::string_view path) {
  std::ifstream in{std::string(path), std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "bench_perf: --pin: cannot read '%.*s'\n",
                 static_cast<int>(path.size()), path.data());
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  try {
    return util::json_parse(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: --pin: %.*s: %s\n",
                 static_cast<int>(path.size()), path.data(), e.what());
    return std::nullopt;
  }
}

bool parse_flags(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (arg == "--skip-live") {
      opts.skip_live = true;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: bench_perf [--out-dir=DIR] [--pin=BENCH_sim.json] "
                   "[--max-trace-overhead=F] [--min-prefetch-hit-gain=X] "
                   "[--skip-live]\n");
      return false;
    } else if (eq == std::string_view::npos) {
      std::fprintf(stderr, "bench_perf: unknown flag '%s'\n", argv[i]);
      return false;
    } else if (flag == "--out-dir") {
      opts.out_dir = std::string(value);
    } else if (flag == "--pin") {
      if (!(opts.pin = load_pin(value))) return false;
    } else if (flag == "--max-trace-overhead") {
      if (!(opts.max_trace_overhead = parse_bound(flag, value))) return false;
    } else if (flag == "--min-prefetch-hit-gain") {
      if (!(opts.min_prefetch_hit_gain = parse_bound(flag, value)))
        return false;
    } else {
      std::fprintf(stderr, "bench_perf: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (opts.skip_live &&
      (opts.max_trace_overhead || opts.min_prefetch_hit_gain)) {
    std::fprintf(stderr,
                 "bench_perf: the live gates need the live run; drop "
                 "--skip-live\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_flags(argc, argv, opts)) return 2;

  const std::string sha = core::detect_git_sha();

  struct SimCase {
    const char* name;
    core::ExperimentConfig (*config)();
  };
  const SimCase kSimCases[] = {
      {"fig8_memory_sweep", fig8_config},
      {"drift_adaptive", drift_config},
      {"fault_recovery", fault_config},
      {"zoo_cdn_flash", zoo_cdn_flash_config},
      {"zoo_api_gateway", zoo_api_gateway_config},
      {"zoo_ecommerce_diurnal", zoo_ecommerce_config},
  };

  core::PerfReport sim_report;
  sim_report.suite = "sim";
  sim_report.git_sha = sha;
  for (const SimCase& c : kSimCases) {
    core::PerfScenario s = run_sim_scenario(c.name, c.config());
    std::fprintf(stderr,
                 "[bench_perf] %s: %llu events, %.0f events/s, %llu "
                 "allocations (%.2f/event)\n",
                 c.name, static_cast<unsigned long long>(s.sim_events),
                 s.events_per_sec,
                 static_cast<unsigned long long>(s.allocations),
                 s.allocations_per_event);
    sim_report.scenarios.push_back(std::move(s));
  }
  sim_report.generated_unix_ms = core::unix_now_ms();
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);  // best effort
  const std::string sim_path = opts.out_dir + "/BENCH_sim.json";
  if (!core::write_perf_report(sim_report, sim_path)) return 1;
  std::fprintf(stderr, "[bench_perf] wrote %s\n", sim_path.c_str());

  bool failed = false;
  if (opts.pin) {
    const auto violations = core::pin_violations(*opts.pin, sim_report);
    for (const std::string& v : violations)
      std::fprintf(stderr, "[bench_perf] FAIL: pin: %s\n", v.c_str());
    if (violations.empty())
      std::fprintf(stderr, "[bench_perf] pin: sim counters match\n");
    failed = !violations.empty();
  }

  if (!opts.skip_live) {
    core::PerfReport live_report;
    live_report.suite = "live";
    live_report.git_sha = sha;
    // Tracing off, then on at the CI sampling rate: the ratio is the
    // observability tax on live throughput (1.0 = free).
    // A cell that cannot start (no sockets, say) is an error: its report
    // would carry zero-throughput rows.
    const auto failed_to_start = [](const char* name) {
      std::fprintf(stderr, "[bench_perf] FAIL: %s: live cluster failed to "
                   "start; BENCH_live.json not written\n", name);
      return 1;
    };
    const std::optional<core::PerfScenario> untraced_run =
        run_live_scenario("live_loopback_burst", 0.0);
    if (!untraced_run) return failed_to_start("live_loopback_burst");
    const std::optional<core::PerfScenario> traced_run =
        run_live_scenario("live_loopback_traced_1pct", 0.01);
    if (!traced_run) return failed_to_start("live_loopback_traced_1pct");
    core::PerfScenario untraced = *untraced_run;
    core::PerfScenario traced = *traced_run;
    const double trace_ratio =
        untraced.requests_per_sec > 0
            ? traced.requests_per_sec / untraced.requests_per_sec
            : 0.0;
    std::fprintf(stderr,
                 "[bench_perf] live tracing @1%%: %.0f vs %.0f req/s "
                 "(%.3fx)\n",
                 traced.requests_per_sec, untraced.requests_per_sec,
                 trace_ratio);
    live_report.scenarios.push_back(std::move(untraced));
    live_report.scenarios.push_back(std::move(traced));
    live_report.speedups.push_back(
        {"live_tracing_1pct_rps_ratio", trace_ratio});

    // Prefetch off, then on: the hit-rate ratio is the acceptance number
    // (>1.0 = the prediction service converts real misses), the rps ratio
    // is its throughput tax, and the waste ratio is the on-cell's share
    // of issued prefetches no client ever consumed.
    const std::optional<LivePrefetchCell> pf_off_run =
        run_live_prefetch_cell("live_prefetch_off", false);
    if (!pf_off_run) return failed_to_start("live_prefetch_off");
    const std::optional<LivePrefetchCell> pf_on_run =
        run_live_prefetch_cell("live_prefetch_on", true);
    if (!pf_on_run) return failed_to_start("live_prefetch_on");
    LivePrefetchCell pf_off = *pf_off_run;
    LivePrefetchCell pf_on = *pf_on_run;
    const double hit_gain = pf_off.worker_hit_rate > 0
                                ? pf_on.worker_hit_rate /
                                      pf_off.worker_hit_rate
                                : 0.0;
    const double pf_rps_ratio =
        pf_off.scenario.requests_per_sec > 0
            ? pf_on.scenario.requests_per_sec /
                  pf_off.scenario.requests_per_sec
            : 0.0;
    std::fprintf(stderr,
                 "[bench_perf] live prefetch on vs off: cache-hit %.3f vs "
                 "%.3f (%.3fx), %.0f vs %.0f req/s (%.3fx), issued=%llu "
                 "waste=%.3f\n",
                 pf_on.worker_hit_rate, pf_off.worker_hit_rate, hit_gain,
                 pf_on.scenario.requests_per_sec,
                 pf_off.scenario.requests_per_sec, pf_rps_ratio,
                 static_cast<unsigned long long>(pf_on.issued),
                 pf_on.waste_ratio);
    live_report.scenarios.push_back(std::move(pf_off.scenario));
    live_report.scenarios.push_back(std::move(pf_on.scenario));
    live_report.speedups.push_back(
        {"live_prefetch_cache_hit_ratio", hit_gain});
    live_report.speedups.push_back({"live_prefetch_rps_ratio", pf_rps_ratio});
    live_report.speedups.push_back(
        {"live_prefetch_waste_ratio", pf_on.waste_ratio});
    live_report.generated_unix_ms = core::unix_now_ms();
    const std::string live_path = opts.out_dir + "/BENCH_live.json";
    if (!core::write_perf_report(live_report, live_path)) return 1;
    std::fprintf(stderr, "[bench_perf] wrote %s\n", live_path.c_str());
    // A ratio of 0 means a cell served nothing: a set gate fails on it.
    if (opts.max_trace_overhead &&
        (trace_ratio <= 0 || trace_ratio < 1.0 - *opts.max_trace_overhead)) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: tracing at 1%% keeps %.3fx of live "
                   "req/s (gate: lose at most %.1f%%)\n",
                   trace_ratio, 100.0 * *opts.max_trace_overhead);
      failed = true;
    }
    if (opts.min_prefetch_hit_gain &&
        (hit_gain <= 0 || hit_gain < *opts.min_prefetch_hit_gain)) {
      std::fprintf(stderr,
                   "[bench_perf] FAIL: prefetch cache-hit gain %.3fx is "
                   "below the --min-prefetch-hit-gain gate %.3fx\n",
                   hit_gain, *opts.min_prefetch_hit_gain);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
