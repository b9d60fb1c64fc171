#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "layers.h"
#include "metrics/stats.h"
#include "net/live_cluster.h"
#include "obs/trace_context.h"
#include "trace/models.h"

namespace perfbench {
namespace {

using namespace prord;

// Why each workload exists is recorded in README.md; the constants below
// are the workload definitions and must not drift between commits.

/// Client connections of the live workloads: at most nproc (4) — with
/// more, the kernel scheduler rather than the server sets the numbers.
constexpr std::size_t kLiveConnections = 4;
/// Requests per live repetition (full / smoke).
constexpr std::size_t kLiveRequests = 15'000;
constexpr std::size_t kSmokeRequests = 1'500;
/// Smoke runs shrink every generated trace to this many requests.
constexpr std::size_t kSmokeTraceRequests = 3'000;
/// Repetitions every run makes at least, whatever --seconds says.
constexpr std::size_t kMinReps = 3;
/// The largest share of the client's mean latency the hop means may leave
/// unaccounted for. The spans start when the distributor reads a request
/// and end when it sends the response, so the client's loopback sends and
/// receives fall outside them: 41–42% of the mean on a 4-vCPU VM. A
/// missing upstream_wait hop (~30% of the mean) pushes the share past it.
constexpr double kMaxUnattributedShare = 0.55;

/// The site is a fixed property of each workload; the seed draws the
/// visitors (evaluation and training traces), the way the trace models
/// derive their generator seed.
trace::WorkloadSpec seeded(trace::WorkloadSpec spec, std::uint64_t seed) {
  spec.gen.seed = seed * 31 + 1;
  return spec;
}

/// Every workload measures several independent traces ("cells") per run:
/// a single trace's simulated hit ratio and queueing delay move by up to
/// 40% between seeds, which would drown any change in code. Cell 0 uses
/// the seed itself (seed 2006 on sim_fig8 is the repository's pinned
/// Fig. 8 cell); the others are far enough away that neighbouring seeds
/// share no trace.
constexpr std::size_t kSimCells = 16;
constexpr std::size_t kLiveCells = 4;
std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
  return seed + cell * 1'000'003;
}

std::vector<core::ExperimentConfig> sim_cells(const Options& o) {
  std::vector<core::ExperimentConfig> cells;
  for (std::size_t i = 0; i < kSimCells; ++i) {
    core::ExperimentConfig config;
    config.policy = core::PolicyKind::kPrord;
    config.memory_fraction = 0.30;
    config.obs.metrics = true;
    config.workload = seeded(trace::cs_dept_spec(), cell_seed(o.seed, i));
    if (o.smoke) config.workload.gen.target_requests = kSmokeTraceRequests;
    cells.push_back(std::move(config));
  }
  return cells;
}

net::LiveConfig live_config(const Options& o, std::uint64_t seed) {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = 4;
  config.concurrency = kLiveConnections;
  config.pipeline_depth = 1;
  config.workload = seeded(trace::synthetic_spec(), seed);
  config.memory_fraction = 0.30;
  config.requests = kLiveRequests;
  if (o.smoke) {
    config.workload.gen.target_requests = kSmokeTraceRequests;
    config.requests = kSmokeRequests;
  }
  return config;
}

/// The online adaptation the adapt replay runs: bench_perf's
/// drift_adaptive settings. No workload runs with adaptation on, so the
/// adapt layer is measured by replay alone.
core::AdaptOptions replayed_adaptation() {
  core::AdaptOptions adapt;
  adapt.enabled = true;
  adapt.epoch = sim::sec(600.0);
  adapt.window = sim::sec(500.0);
  adapt.popularity_halflife_s = 1200.0;
  return adapt;
}

/// The LiveConfig whose prepare_live_setup() builds exactly the site,
/// traces, model and cache sizing run_experiment builds for `sim`.
net::LiveConfig mirror_sim(const core::ExperimentConfig& sim) {
  net::LiveConfig config;
  config.policy = sim.policy;
  config.backends = sim.params.num_backends;
  config.workload = sim.workload;
  config.memory_fraction = sim.memory_fraction;
  config.pinned_fraction = sim.pinned_fraction;
  config.prefetch_threshold = sim.prefetch_threshold;
  config.replication_interval = sim.replication_interval;
  return config;
}

/// Paces a run's repetitions: at least `min_reps`, then another only
/// while it, taking as long as the last one, still ends within `seconds`
/// of the start — so a run lasts about `seconds`, however long a
/// repetition takes.
class Pacer {
 public:
  Pacer(double seconds, std::size_t min_reps)
      : seconds_(seconds), min_reps_(min_reps) {}

  bool more() {
    const double now = now_s();
    if (reps_ > 0) last_s_ = now - lap_;
    lap_ = now;
    ++reps_;
    return reps_ <= min_reps_ || now - start_ + last_s_ <= seconds_;
  }

 private:
  double seconds_;
  std::size_t min_reps_;
  double start_ = now_s();
  double lap_ = start_;
  double last_s_ = 0.0;
  std::size_t reps_ = 0;
};

double ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

// ---------------------------------------------------------------------------
// Simulator workloads.
// ---------------------------------------------------------------------------

/// One repetition: every cell of the workload, in order.
struct SimRep {
  std::vector<core::ExperimentResult> cells;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;

  double sim_wall_s() const {
    double sum = 0.0;
    for (const core::ExperimentResult& r : cells) sum += r.sim_wall_seconds;
    return sum;
  }
  std::uint64_t sim_events() const {
    std::uint64_t sum = 0;
    for (const core::ExperimentResult& r : cells) sum += r.sim_events;
    return sum;
  }
  /// Mean over the cells of a per-cell figure.
  template <class Fn>
  double cell_mean(Fn&& fn) const {
    double sum = 0.0;
    for (const core::ExperimentResult& r : cells) sum += fn(r);
    return sum / static_cast<double>(cells.size());
  }
};

/// `traced` records a span for every request (ObsOptions::trace_sample_rate
/// = 1): the exact response times the latency metrics are taken from,
/// which the histograms only give to ~3%.
SimRep run_sim_rep(std::vector<core::ExperimentConfig> cells, bool traced) {
  if (traced)
    for (core::ExperimentConfig& config : cells) config.obs.trace_sample_rate = 1.0;
  SimRep rep;
  const std::uint64_t a0 = process_allocs();
  const CpuSample c0 = cpu_process();
  const double t0 = now_s();
  for (const core::ExperimentConfig& config : cells)
    rep.cells.push_back(core::run_experiment(config));
  rep.wall_s = now_s() - t0;
  rep.cpu_s = (cpu_process() - c0).total_s();
  rep.allocs = process_allocs() - a0;
  return rep;
}

/// Correctness of one sim repetition, and its agreement with the first:
/// the simulator is deterministic, and tracing must not perturb it, so
/// every figure it reports must repeat exactly. Allocation counts are
/// compared between untraced repetitions from `steady` on (the first
/// repetition also pays one-time static initialisation).
void check_sim_rep(const SimRep& rep, const std::vector<SimRep>& earlier,
                   std::size_t steady, Report& report) {
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    const core::ExperimentResult& r = rep.cells[i];
    report.attempted += r.num_requests;
    report.failed += r.metrics.failed;
    report.check(r.metrics.completed + r.metrics.failed == r.num_requests,
                 "sim: completed + failed != issued");
    report.check(r.metrics.failed == 0, "sim: failed requests");
    if (earlier.empty()) continue;
    const core::ExperimentResult& first = earlier.front().cells[i];
    report.check(r.sim_events == first.sim_events,
                 "sim: simcore.events differs between repetitions");
    report.check(r.hit_rate() == first.hit_rate(),
                 "sim: hit ratio differs between repetitions");
    report.check(r.throughput_rps() == first.throughput_rps(),
                 "sim: throughput differs between repetitions");
    report.check(r.metrics.response_time_us.mean() ==
                         first.metrics.response_time_us.mean() &&
                     r.metrics.response_hist.p99() ==
                         first.metrics.response_hist.p99(),
                 "sim: response times differ between repetitions");
  }
  if (earlier.size() > steady)
    report.check(rep.allocs == earlier[steady].allocs,
                 "sim: allocation count differs between repetitions");
}

/// Repetitions for about `seconds`, kMinReps untraced ones at least; with
/// `traced_first` an extra traced repetition leads.
std::vector<SimRep> run_sim_reps(const std::vector<core::ExperimentConfig>& cells,
                                 double seconds, bool traced_first,
                                 Report& report) {
  const std::size_t steady = traced_first ? 2 : 1;
  std::vector<SimRep> reps;
  Pacer pacer(seconds, kMinReps + (traced_first ? 1 : 0));
  while (pacer.more()) {
    SimRep rep = run_sim_rep(cells, traced_first && reps.empty());
    check_sim_rep(rep, reps, steady, report);
    reps.push_back(std::move(rep));
  }
  return reps;
}

/// Response times of every request of every cell, from the traced
/// repetition's spans (simulated µs).
std::vector<double> response_times_us(const SimRep& traced, Report& report) {
  std::vector<double> us;
  for (const core::ExperimentResult& r : traced.cells) {
    report.check(r.spans.size() == r.num_requests,
                 "sim: traced repetition lacks spans");
    double sum = 0.0;
    for (const obs::RequestSpan& span : r.spans) {
      us.push_back(static_cast<double>(span.response_time()));
      sum += us.back();
    }
    const double mean_us = r.spans.empty() ? 0.0 : sum / static_cast<double>(r.spans.size());
    report.check(std::abs(mean_us - r.metrics.response_time_us.mean()) <=
                     1e-6 * mean_us,
                 "sim: span response times disagree with the run's mean");
  }
  return us;
}

/// The cells' inputs, built by the same steps run_experiment takes.
std::vector<net::LiveSetup> sim_setups(
    const std::vector<core::ExperimentConfig>& cells, Report& report) {
  std::vector<net::LiveSetup> setups(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    report.check(net::prepare_live_setup(mirror_sim(cells[i]), setups[i]),
                 "sim: workload set-up failed");
  return setups;
}

/// Simulated requests per repetition: each cell's warm-up plays its
/// training trace, the measured run its evaluation trace.
double simulated_requests(const std::vector<net::LiveSetup>& setups,
                          const std::vector<core::ExperimentConfig>& cells) {
  double n = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i)
    n += static_cast<double>(setups[i].eval.requests.size() +
                             (cells[i].warmup ? setups[i].train.requests.size() : 0));
  return n;
}

void sim_end_to_end(const Options& o, Report& report) {
  const std::vector<core::ExperimentConfig> cells = sim_cells(o);
  const std::vector<net::LiveSetup> setups = sim_setups(cells, report);
  const double requests = simulated_requests(setups, cells);

  const std::vector<SimRep> reps =
      run_sim_reps(cells, o.seconds, /*traced_first=*/true, report);
  for (std::size_t i = 0; i < cells.size(); ++i)
    report.check(reps.front().cells[i].num_requests ==
                     setups[i].eval.requests.size(),
                 "sim: evaluation trace differs from the mirrored set-up");
  std::vector<double> setup_s, host_rps, cpu_us;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const SimRep& rep = reps[i];
    setup_s.push_back(rep.wall_s - rep.sim_wall_s());
    host_rps.push_back(requests / rep.sim_wall_s());
    cpu_us.push_back(rep.cpu_s * 1e6 / requests);
    std::fprintf(stderr,
                 "perfbench: %s rep %zu: %.0f simulated req/s, cpu %.3f us/req, "
                 "set-up %.3f s\n",
                 o.workload.c_str(), i, host_rps.back(), cpu_us.back(),
                 setup_s.back());
  }
  const SimRep& last = reps.back();
  const std::vector<double> response_us = response_times_us(reps.front(), report);
  report.set("setup_s", median(setup_s));
  report.set("host_rps", rate_estimate(host_rps));
  report.set("throughput_rps", last.cell_mean([](const auto& r) {
    return r.throughput_rps();
  }));
  report.set("p50_ms", quantile(response_us, 0.50) / 1000.0);
  report.set("p99_ms", quantile(response_us, 0.99) / 1000.0);
  report.set("mean_ms", mean(response_us) / 1000.0);
  report.set("hit_ratio", last.cell_mean([](const auto& r) {
    return r.hit_rate();
  }));
  report.set("cpu_us_per_req", cost_estimate(cpu_us));
  report.set("allocs_per_req", static_cast<double>(last.allocs) / requests);
}

/// Requests between two replication rounds: the round period is on the
/// trace clock, compressed along with the arrivals.
std::size_t sim_requests_per_round(const net::LiveSetup& setup,
                                   const core::ExperimentConfig& config) {
  const double span = static_cast<double>(setup.eval.span());
  if (span <= 0) return setup.eval.requests.size();
  return static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(setup.eval.requests.size()) *
                        static_cast<double>(config.replication_interval) / span));
}

void sim_per_layer(const Options& o, Report& report) {
  const std::vector<core::ExperimentConfig> cells = sim_cells(o);
  const std::vector<net::LiveSetup> setups = sim_setups(cells, report);

  const std::vector<SimRep> reps =
      run_sim_reps(cells, o.seconds / 2, /*traced_first=*/false, report);
  std::vector<double> events_per_s;
  for (const SimRep& rep : reps)
    events_per_s.push_back(static_cast<double>(rep.sim_events()) /
                           rep.sim_wall_s());
  const SimRep& last = reps.back();
  const auto total = [&last](auto&& fn) {
    return last.cell_mean(fn) * static_cast<double>(last.cells.size());
  };
  report.set("simcore.events", static_cast<double>(last.sim_events()));
  report.set("sim.events_per_s", rate_estimate(events_per_s));
  report.set("sim.allocs_per_event", static_cast<double>(last.allocs) /
                                         static_cast<double>(last.sim_events()));
  report.set("policies.replicas_pushed", total([](const auto& r) {
    return static_cast<double>(r.replicas_pushed);
  }));
  report.set("policies.prefetches", total([](const auto& r) {
    return static_cast<double>(r.prefetches_triggered);
  }));
  report.set("core.dispatch_per_req", last.cell_mean([](const auto& r) {
    return r.dispatch_frequency();
  }));
  report.set("logmining.pred_hit_ratio", last.cell_mean([](const auto& r) {
    return r.prediction_hit_rate();
  }));

  // The replays take the first cell's stream.
  LayerPlan plan;
  plan.setup = &setups.front();
  plan.requests_per_round = sim_requests_per_round(setups.front(), cells.front());
  plan.adapt = replayed_adaptation();
  replay_layers(plan, report);
}

// ---------------------------------------------------------------------------
// Live workloads.
// ---------------------------------------------------------------------------

struct LiveRep {
  net::LiveRunResult result;
  double wall_s = 0.0;
  CpuSample server;  ///< every thread but the calling (load-generator) one
  CpuSample caller;  ///< the calling thread: set-up + load generator
  std::uint64_t server_allocs = 0;
};

LiveRep run_live_rep(const net::LiveConfig& config) {
  LiveRep rep;
  const std::uint64_t p0 = process_allocs(), t0a = thread_allocs();
  const CpuSample cp0 = cpu_process(), ct0 = cpu_this_thread();
  const double t0 = now_s();
  rep.result = net::run_live(config);
  rep.wall_s = now_s() - t0;
  const CpuSample process = cpu_process() - cp0;
  rep.caller = cpu_this_thread() - ct0;
  rep.server = process - rep.caller;
  rep.server_allocs = (process_allocs() - p0) - (thread_allocs() - t0a);
  return rep;
}

void check_live_rep(const LiveRep& rep, const net::LiveConfig& config,
                    Report& report) {
  const net::LiveRunResult& r = rep.result;
  report.attempted += r.load.issued;
  report.failed += r.load.failed + r.load.status_error;
  report.check(r.started, "live: cluster failed to start");
  report.check(r.load.issued == config.requests, "live: issued != requested");
  report.check(r.conserved(), "live: completed + failed != issued");
  report.check(r.shard_conserved(), "live: shard conservation broken");
  report.check(r.load.failed == 0, "live: failed requests");
  report.check(r.load.status_error == 0, "live: non-2xx responses");
  report.check(r.dist_parse_errors == 0, "live: distributor parse errors");
}

double completed(const LiveRep& rep) {
  return static_cast<double>(std::max<std::uint64_t>(1, rep.result.load.completed));
}

/// Every repetition's end-to-end figures.
struct LiveReps {
  std::vector<double> rps, p50, p99, mean_ms, hit, cpu, allocs;

  void add(const LiveRep& rep) {
    const net::LiveRunResult& r = rep.result;
    rps.push_back(r.load.throughput_rps());
    p50.push_back(ms(r.load.latency_hist.p50()));
    p99.push_back(ms(r.load.latency_hist.p99()));
    mean_ms.push_back(r.load.latency_us.mean() / 1000.0);
    hit.push_back(r.worker_hit_rate());
    cpu.push_back(rep.server.total_s() * 1e6 / completed(rep));
    allocs.push_back(static_cast<double>(rep.server_allocs) / completed(rep));
  }
};

void live_end_to_end(const Options& o, Report& report) {
  std::vector<net::LiveConfig> configs;
  for (std::size_t c = 0; c < kLiveCells; ++c)
    configs.push_back(live_config(o, cell_seed(o.seed, c)));
  // Repetitions cycle through the cells so that a spell of interference
  // on the host spreads over all of them. Within one run the cells' live
  // figures agree to a few percent, far less than the host moves them, so
  // each estimate pools the repetitions of every cell: an estimate over
  // all of them is steadier than per-cell estimates averaged.
  LiveReps reps;
  std::vector<double> setup_s;
  Pacer pacer(o.seconds, kMinReps * kLiveCells);
  for (std::size_t rep = 0; pacer.more(); ++rep) {
    const std::size_t c = rep % kLiveCells;
    const LiveRep run = run_live_rep(configs[c]);
    check_live_rep(run, configs[c], report);
    std::fprintf(stderr,
                 "perfbench: %s rep %zu (cell %zu): %.0f req/s, p50 %.3f ms, "
                 "p99 %.3f ms, server cpu %.1f us/req\n",
                 o.workload.c_str(), rep, c, run.result.load.throughput_rps(),
                 ms(run.result.load.latency_hist.p50()),
                 ms(run.result.load.latency_hist.p99()),
                 run.server.total_s() * 1e6 / completed(run));
    reps.add(run);
    setup_s.push_back(run.wall_s - run.result.load.duration_s);
  }
  report.set("setup_s", median(setup_s));
  // The served clock is the wall clock: both rates are the same figure.
  report.set("host_rps", rate_estimate(reps.rps));
  report.set("throughput_rps", rate_estimate(reps.rps));
  report.set("p50_ms", cost_estimate(reps.p50));
  report.set("p99_ms", tail_estimate(reps.p99));
  report.set("mean_ms", cost_estimate(reps.mean_ms));
  report.set("hit_ratio", median(reps.hit));
  report.set("cpu_us_per_req", cost_estimate(reps.cpu));
  report.set("allocs_per_req", median(reps.allocs));
}

/// Per-hop means and p99s over every span of the traced repetitions, and
/// the check that the hop means add up to the client's mean latency over
/// the same requests. That latency is stamped by the load generator, not
/// by the spans, so hops that over-count, or a large hop gone missing,
/// fail the check. The part no hop accounts for is reported as
/// hop.unattributed_us.mean.
void report_hops(const std::vector<obs::LiveSpan>& spans,
                 double client_mean_us, Report& report) {
  report.check(!spans.empty(), "live trace: no spans collected");
  if (spans.empty()) return;
  double hop_mean_sum = 0.0;
  for (unsigned h = 0; h < obs::kNumLiveHops; ++h) {
    std::vector<double> us;
    us.reserve(spans.size());
    for (const obs::LiveSpan& s : spans)
      us.push_back(static_cast<double>(s.hop_us[h]));
    const std::string name =
        std::string("hop.") + obs::live_hop_name(static_cast<obs::LiveHop>(h));
    const double m = mean(us);
    hop_mean_sum += m;
    report.set(name + "_us.mean", m);
    report.set(name + "_us.p99", quantile(std::move(us), 0.99));
  }
  const double unattributed = client_mean_us - hop_mean_sum;
  report.set("hop.unattributed_us.mean", unattributed);
  // Both clocks read whole microseconds; allow one per hop for rounding.
  const double rounding_us = obs::kNumLiveHops;
  report.check(unattributed >= -rounding_us &&
                   unattributed <= kMaxUnattributedShare * client_mean_us,
               "live trace: hop means do not add up to the client's mean "
               "latency");
}

void live_per_layer(const Options& o, Report& report) {
  const net::LiveConfig config = live_config(o, o.seed);
  net::LiveSetup setup;
  const CpuSample s0 = cpu_this_thread();
  report.check(net::prepare_live_setup(config, setup), "live: set-up failed");
  const double setup_cpu_s = (cpu_this_thread() - s0).total_s();

  net::LiveConfig traced = config;
  traced.trace_sample_rate = 1.0;
  traced.max_spans = config.requests + 1024;

  // Untraced and traced repetitions alternate so drift on the host hits
  // both sides of the tracing-overhead ratio alike.
  std::vector<double> rps_plain, rps_traced, sys_share, ctx, gen_share,
      offered, dispatch;
  std::vector<obs::LiveSpan> spans;
  metrics::RunningStats client_latency_us;
  Pacer pacer(o.seconds / 2, 2);
  while (pacer.more()) {
    const LiveRep plain = run_live_rep(config);
    check_live_rep(plain, config, report);
    const LiveRep with_spans = run_live_rep(traced);
    check_live_rep(with_spans, traced, report);
    report.check(with_spans.result.trace_dropped == 0,
                 "live trace: spans dropped (max_spans too small)");
    report.check(with_spans.result.spans.size() ==
                     with_spans.result.load.latency_us.count(),
                 "live trace: spans and client latencies cover different "
                 "requests");

    const net::LiveRunResult& r = plain.result;
    const double n = completed(plain);
    rps_plain.push_back(r.load.throughput_rps());
    rps_traced.push_back(with_spans.result.load.throughput_rps());
    sys_share.push_back(plain.server.sys_s / plain.server.total_s());
    ctx.push_back(static_cast<double>(plain.server.ctx_switches) / n);
    const double gen_cpu = std::max(0.0, plain.caller.total_s() - setup_cpu_s);
    gen_share.push_back(gen_cpu / (gen_cpu + plain.server.total_s()));
    // Little's law: in a closed loop every connection always has one
    // request outstanding when the generator keeps up.
    offered.push_back(r.load.throughput_rps() * r.load.latency_us.mean() /
                      1e6 / static_cast<double>(config.concurrency));
    dispatch.push_back(static_cast<double>(r.dispatches) /
                       static_cast<double>(std::max<std::uint64_t>(1, r.routed)));
    spans.insert(spans.end(), with_spans.result.spans.begin(),
                 with_spans.result.spans.end());
    client_latency_us.merge(with_spans.result.load.latency_us);
  }
  report_hops(spans, client_latency_us.mean(), report);
  report.set("obs.trace_overhead", 1.0 - median(rps_traced) / median(rps_plain));
  report.set("live.sys_share", median(sys_share));
  report.set("live.ctx_switches_per_req", median(ctx));
  report.set("loadgen.cpu_share", median(gen_share));
  report.set("loadgen.offered_ratio", median(offered));
  report.set("core.dispatch_per_req", median(dispatch));

  LayerPlan plan;
  plan.setup = &setup;
  const double rps = median(rps_plain);
  plan.requests_per_round = static_cast<std::size_t>(std::max(
      1.0, rps * static_cast<double>(config.replication_interval) / 1e6));
  plan.net = true;
  plan.route_interval_us = 1e6 / rps;
  replay_layers(plan, report);
}

}  // namespace

bool is_sim_workload(const std::string& name) { return name == "sim_fig8"; }
bool is_workload(const std::string& name) {
  return is_sim_workload(name) || name == "live_closed";
}

void run_end_to_end(const Options& options, Report& report) {
  if (is_sim_workload(options.workload))
    sim_end_to_end(options, report);
  else
    live_end_to_end(options, report);
}

void run_per_layer(const Options& options, Report& report) {
  if (is_sim_workload(options.workload))
    sim_per_layer(options, report);
  else
    live_per_layer(options, report);
}

}  // namespace perfbench
