#include "core/workload_player.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "core/routing_core.h"
#include "util/pool.h"

namespace prord::core {
namespace {

/// Everything a request attempt's event chain needs, pooled. The serve
/// pipeline's closures capture {player, record} — 16 bytes — instead of a
/// dozen loose values, which keeps every hot closure inside the event
/// queue's inline buffer. The record lives from route commit to the
/// completion callback and is released exactly once, there.
struct InFlight {
  std::uint32_t request_index = 0;
  std::uint32_t conn = 0;
  std::uint32_t attempt = 0;
  policies::ServerId server = cluster::kNoServer;
  policies::ServerId home = cluster::kNoServer;
  policies::ServerId fetch_from = cluster::kNoServer;
  obs::RouteVia via = obs::RouteVia::kDispatcher;
  bool contacted_dispatcher = false;
  bool handoff = false;
  bool forwarded = false;
  bool traced = false;
  bool resident = false;
  sim::SimTime extra = 0;      ///< pre-service latency charged at the back-end
  sim::SimTime issued_at = 0;  ///< first attempt's issue time
  sim::SimTime handed = 0;     ///< when the front-end handed it off
};

/// Whole-run state shared by the event closures.
struct PlayerState {
  sim::Simulator& sim;
  cluster::Cluster& cluster;
  policies::DistributionPolicy& policy;
  const trace::Workload& workload;
  PlayerOptions options;

  // Per-connection request lists in CSR form: connection c's request
  // indices are conn_reqs[conn_offset[c] .. conn_offset[c+1]); conn_pos is
  // the progress cursor. Connection ids are dense (the sessionizer interns
  // them), so flat arrays replace the per-request hash probes.
  std::vector<std::uint32_t> conn_offset{};
  std::vector<std::uint32_t> conn_reqs{};
  std::vector<std::uint32_t> conn_pos{};
  // Kickoff enumeration for closed-loop mode. Deliberately an
  // unordered_map built with the same key-insertion sequence as the
  // original per-connection map: the hash iteration order decides the
  // scheduling sequence (and thus event seq numbers) of same-timestamp
  // kickoffs, and byte-identical tables require reproducing it exactly.
  std::unordered_map<std::uint32_t, std::uint32_t> kickoff{};

  util::FixedPool<InFlight> inflight_pool{1024};

  // The decision-commit engine shared with the live distributor
  // (src/net/): owns per-connection routing state.
  RoutingCore routing{cluster, policy};

  RunMetrics metrics{};
  bool first_issue_seen = false;
  sim::SimTime base = 0;  ///< sim time when this play started

  sim::SimTime scaled(sim::SimTime t) const {
    // External logs rebased on their first *parsed* record can carry small
    // negative offsets after sorting; clamp into the playable horizon.
    const auto offset = static_cast<sim::SimTime>(static_cast<double>(t) /
                                                  options.time_scale);
    return base + std::max<sim::SimTime>(0, offset);
  }

  /// completed + failed: every issued request ends in exactly one bucket.
  std::uint64_t settled() const {
    return metrics.completed + metrics.failed;
  }

  /// Per-phase accounting: attribute a settled request to the workload
  /// phase containing its *trace* timestamp (pure bookkeeping — the event
  /// schedule is untouched, so enabling phases never changes results).
  void account_phase(sim::SimTime trace_at, sim::SimTime issued_at,
                     sim::SimTime completion, bool ok, bool resident,
                     double response_us) {
    if (metrics.phases.empty()) return;
    const auto& starts = options.phase_starts;
    auto it = std::upper_bound(starts.begin(), starts.end(), trace_at);
    const std::size_t idx =
        it == starts.begin()
            ? 0
            : static_cast<std::size_t>(it - starts.begin()) - 1;
    PhaseStats& p = metrics.phases[idx];
    const bool first = (p.completed + p.failed) == 0;
    if (ok) {
      ++p.completed;
      if (resident) ++p.cache_hits;
      p.response_time_us.add(response_us);
    } else {
      ++p.failed;
    }
    p.first_issue = first ? issued_at : std::min(p.first_issue, issued_at);
    p.last_completion = std::max(p.last_completion, completion);
  }

  /// Ends the run once every request has settled: cancel policy periodic
  /// work, then tell the fault harness (if any) to stop its heartbeat.
  void maybe_finish() {
    if (settled() != workload.requests.size()) return;
    policy.finish(cluster);
    if (options.on_drain) options.on_drain();
  }

  void issue(std::size_t request_index);
  void issue_attempt(std::size_t request_index, std::uint32_t attempt,
                     policies::ServerId failed_on, sim::SimTime first_issued);
  void issue_next_of_conn(std::uint32_t conn, sim::SimTime not_before);
  void hand_to_backend(InFlight* rec);
  void begin_service(InFlight* rec);
  void complete(InFlight* rec, sim::SimTime completion, bool ok);
};

void PlayerState::issue_next_of_conn(std::uint32_t conn,
                                     sim::SimTime not_before) {
  if (options.open_loop) return;  // everything was scheduled up front
  std::uint32_t& pos = conn_pos[conn];
  if (pos >= conn_offset[conn + 1]) return;
  const std::size_t idx = conn_reqs[pos];
  ++pos;
  const sim::SimTime at =
      std::max(not_before, scaled(workload.requests[idx].at));
  sim.schedule_at(std::max(at, sim.now()), [this, idx] { issue(idx); });
}

void PlayerState::issue(std::size_t request_index) {
  issue_attempt(request_index, 0, cluster::kNoServer, sim.now());
}

void PlayerState::issue_attempt(std::size_t request_index,
                                std::uint32_t attempt,
                                policies::ServerId failed_on,
                                sim::SimTime first_issued) {
  const trace::Request& req = workload.requests[request_index];

  if (!first_issue_seen) {
    metrics.first_issue = sim.now();
    first_issue_seen = true;
  }
  const sim::SimTime issued_at = first_issued;

  const RoutedRequest routed = routing.route(req);
  const auto& decision = routed.decision;
  if (!routed.valid) {
    if (options.max_retries == 0)
      throw std::logic_error("policy returned invalid server");
    // Nothing routable (every back-end believed down). The client burns
    // the connect timeout; then either backs off and retries or gives up.
    const sim::SimTime at = sim.now() + cluster.params().failure_timeout;
    if (attempt < options.max_retries) {
      ++metrics.retries;
      const sim::SimTime backoff =
          options.retry_backoff * static_cast<sim::SimTime>(attempt + 1);
      sim.schedule_at(at + backoff,
                      [this, request_index, attempt, failed_on,
                       first_issued] {
                        issue_attempt(request_index, attempt + 1, failed_on,
                                      first_issued);
                      });
      return;
    }
    ++metrics.failed;
    metrics.last_completion = std::max(metrics.last_completion, at);
    account_phase(req.at, issued_at, at, /*ok=*/false, /*resident=*/false,
                  0.0);
    if (options.tracer && options.tracer->sampled(request_index)) {
      obs::RequestSpan span;
      span.request = request_index;
      span.conn = req.conn;
      span.file = req.file;
      span.bytes = req.bytes;
      span.arrival = issued_at;
      span.backend_start = at;
      span.completion = at;
      span.failed = true;
      span.attempts = attempt + 1;
      span.dynamic = req.is_dynamic;
      span.embedded = req.is_embedded;
      options.tracer->record(span);
    }
    maybe_finish();
    issue_next_of_conn(req.conn, at);
    return;
  }
  if (attempt > 0 && failed_on != cluster::kNoServer &&
      decision.server != failed_on) {
    ++metrics.redispatches;
  }

  const auto& params = cluster.params();

  // Front-end distributor CPU work for this request.
  sim::SimTime fe_service = params.fe_analyze;
  if (decision.contacted_dispatcher) {
    fe_service += params.fe_dispatch;
    ++metrics.dispatches;
  }
  if (decision.handoff) fe_service += params.fe_handoff_cpu;

  // Extra pre-service latency charged at the back-end (the handoff's
  // kernel-level state transfer adds Table 1's 200 µs on top of the
  // distributor CPU above). The connection-state mutations themselves
  // (handoff commit, request count, history) happened inside
  // RoutingCore::route — this block only charges their costs.
  sim::SimTime extra = 0;
  if (routed.new_connection) extra += params.connection_latency;
  if (decision.handoff) {
    extra += params.tcp_handoff;
    ++metrics.handoffs;
  }

  const policies::ServerId home = routed.home;
  if (decision.forwarded) {
    ++metrics.forwards;
    extra += 2 * params.net_latency;  // request hop + response hop setup
  }
  ++metrics.routes_via[static_cast<std::size_t>(decision.via)];
  const bool traced =
      options.tracer && options.tracer->sampled(request_index);

  // With several distributors (decentralized architecture [4]) the L4
  // switch pins each connection to one of them; a remote distributor pays
  // a network round trip per dispatcher contact.
  const std::uint32_t conn_id = req.conn;
  const std::uint32_t fe = conn_id % cluster.num_frontends();
  if (decision.contacted_dispatcher && cluster.num_frontends() > 1)
    extra += 2 * params.net_latency;

  InFlight* rec = inflight_pool.acquire();
  rec->request_index = static_cast<std::uint32_t>(request_index);
  rec->conn = conn_id;
  rec->attempt = attempt;
  rec->server = decision.server;
  rec->home = home;
  rec->fetch_from = decision.fetch_from;
  rec->via = decision.via;
  rec->contacted_dispatcher = decision.contacted_dispatcher;
  rec->handoff = decision.handoff;
  rec->forwarded = decision.forwarded;
  rec->traced = traced;
  rec->extra = extra;
  rec->issued_at = issued_at;

  cluster.frontend_cpu(fe).submit(sim, fe_service,
                                  [this, rec] { hand_to_backend(rec); });
}

void PlayerState::hand_to_backend(InFlight* rec) {
  const trace::Request& r = workload.requests[rec->request_index];
  rec->handed = sim.now();

  if (rec->forwarded && rec->home != cluster::kNoServer) {
    // The response crosses the switched interconnect (queueing on the home
    // back-end's NIC) and the home back-end spends relay CPU pushing it to
    // the client socket.
    cluster.backend(rec->home).relay(r.bytes);
    cluster.backend(rec->home).nic().submit(
        sim, cluster.transfer_time(r.bytes),
        [this, rec] { begin_service(rec); });
  } else {
    begin_service(rec);
  }
  routing.notify_routed(r, rec->server);
}

void PlayerState::begin_service(InFlight* rec) {
  const trace::Request& rq = workload.requests[rec->request_index];
  rec->resident =
      !rq.is_dynamic && cluster.backend(rec->server).caches(rq.file);
  auto on_done = [this, rec](sim::SimTime completion, bool ok) {
    complete(rec, completion, ok);
  };
  if (rec->fetch_from != cluster::kNoServer &&
      rec->fetch_from < cluster.size() && !rq.is_dynamic) {
    cluster.backend(rec->server)
        .serve_cooperative(rq.file, rq.bytes, rec->extra,
                           &cluster.backend(rec->fetch_from),
                           std::move(on_done));
  } else {
    cluster.backend(rec->server)
        .serve(rq.file, rq.bytes, rec->extra, std::move(on_done),
               rq.is_dynamic);
  }
}

void PlayerState::complete(InFlight* rec, sim::SimTime completion, bool ok) {
  const trace::Request& rr = workload.requests[rec->request_index];
  metrics.last_completion = std::max(metrics.last_completion, completion);

  if (!ok) {
    // The request died with its server. Unstick the connection so the
    // next attempt routes fresh.
    routing.unstick(rec->conn, rec->server);
    if (rec->attempt < options.max_retries) {
      ++metrics.retries;
      const sim::SimTime backoff =
          options.retry_backoff * static_cast<sim::SimTime>(rec->attempt + 1);
      const std::size_t request_index = rec->request_index;
      const std::uint32_t attempt = rec->attempt;
      const auto failed_server = rec->server;
      const sim::SimTime issued_at = rec->issued_at;
      inflight_pool.release(rec);
      sim.schedule_at(completion + backoff,
                      [this, request_index, attempt, failed_server,
                       issued_at] {
                        issue_attempt(request_index, attempt + 1,
                                      failed_server, issued_at);
                      });
      return;
    }
    ++metrics.failed;
    account_phase(rr.at, rec->issued_at, completion, /*ok=*/false,
                  /*resident=*/false, 0.0);
    if (rec->traced) {
      obs::RequestSpan span;
      span.request = rec->request_index;
      span.conn = rec->conn;
      span.file = rr.file;
      span.bytes = rr.bytes;
      span.server = rec->server;
      span.home = rec->home;
      span.arrival = rec->issued_at;
      span.backend_start = rec->handed;
      span.completion = completion;
      span.via = rec->via;
      span.contacted_dispatcher = rec->contacted_dispatcher;
      span.handoff = rec->handoff;
      span.forwarded = rec->forwarded;
      span.cache_resident = rec->resident;
      span.dynamic = rr.is_dynamic;
      span.embedded = rr.is_embedded;
      span.failed = true;
      span.attempts = rec->attempt + 1;
      options.tracer->record(span);
    }
    const std::uint32_t conn = rec->conn;
    inflight_pool.release(rec);
    maybe_finish();
    issue_next_of_conn(conn, completion);
    return;
  }

  ++metrics.completed;
  const auto rt = static_cast<double>(completion - rec->issued_at);
  metrics.response_time_us.add(rt);
  metrics.response_hist.record(static_cast<std::uint64_t>(rt));
  account_phase(rr.at, rec->issued_at, completion, /*ok=*/true, rec->resident,
                rt);
  if (rec->traced) {
    obs::RequestSpan span;
    span.request = rec->request_index;
    span.conn = rec->conn;
    span.file = rr.file;
    span.bytes = rr.bytes;
    span.server = rec->server;
    span.home = rec->home;
    span.arrival = rec->issued_at;
    span.backend_start = rec->handed;
    span.completion = completion;
    span.via = rec->via;
    span.contacted_dispatcher = rec->contacted_dispatcher;
    span.handoff = rec->handoff;
    span.forwarded = rec->forwarded;
    span.cache_resident = rec->resident;
    span.dynamic = rr.is_dynamic;
    span.embedded = rr.is_embedded;
    span.attempts = rec->attempt + 1;
    options.tracer->record(span);
  }
  routing.notify_complete(rr, rec->server);
  const std::uint32_t conn = rec->conn;
  inflight_pool.release(rec);
  maybe_finish();
  issue_next_of_conn(conn, completion);
}

}  // namespace

RunMetrics play_workload(sim::Simulator& sim, cluster::Cluster& cluster,
                         policies::DistributionPolicy& policy,
                         const trace::Workload& workload,
                         const PlayerOptions& options) {
  if (options.time_scale <= 0)
    throw std::invalid_argument("play_workload: time_scale must be > 0");
  PlayerState state{sim, cluster, policy, workload, options};
  state.base = sim.now();

  // Per-connection CSR tables (ids are dense): counts -> offsets -> fill.
  const std::size_t n = workload.requests.size();
  std::uint32_t num_conns = 0;
  for (const auto& r : workload.requests)
    num_conns = std::max(num_conns, r.conn + 1);
  state.conn_offset.assign(num_conns + 1, 0);
  for (const auto& r : workload.requests) ++state.conn_offset[r.conn + 1];
  for (std::uint32_t c = 0; c < num_conns; ++c)
    state.conn_offset[c + 1] += state.conn_offset[c];
  state.conn_reqs.resize(n);
  state.conn_pos.assign(state.conn_offset.begin(),
                        state.conn_offset.end() - (num_conns ? 1 : 0));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t conn = workload.requests[i].conn;
    state.conn_reqs[state.conn_pos[conn]++] = static_cast<std::uint32_t>(i);
    state.kickoff.try_emplace(conn, static_cast<std::uint32_t>(i));
  }
  state.conn_pos.assign(state.conn_offset.begin(),
                        state.conn_offset.end() - (num_conns ? 1 : 0));
  state.metrics.phases.resize(options.phase_starts.size());

  policy.start(cluster);

  // Timeline sampling: a self-rescheduling probe that stops once the run
  // drains (it only re-arms while requests are outstanding or pending).
  std::uint64_t completed_at_last_sample = 0;
  std::function<void()> sample = [&] {
    TimelineSample s;
    s.at = sim.now();
    s.completed = state.metrics.completed - completed_at_last_sample;
    completed_at_last_sample = state.metrics.completed;
    double total = 0;
    for (std::uint32_t id = 0; id < cluster.size(); ++id) {
      const auto load = cluster.backend(id).load();
      total += load;
      s.max_load = std::max(s.max_load, load);
    }
    s.mean_load = total / cluster.size();
    state.metrics.timeline.push_back(s);
    if (state.settled() < workload.requests.size())
      sim.schedule(options.sample_interval, sample);
  };
  if (options.sample_interval > 0 && !workload.requests.empty())
    sim.schedule(options.sample_interval, sample);

  // Gauge sampler: same self-rescheduling discipline on its own cadence.
  std::function<void()> obs_sample = [&] {
    options.sampler->sample(sim.now());
    if (state.settled() < workload.requests.size())
      sim.schedule(options.sampler->interval(), obs_sample);
  };
  if (options.sampler && options.sampler->interval() > 0 &&
      !workload.requests.empty())
    sim.schedule(options.sampler->interval(), obs_sample);

  if (options.open_loop) {
    // Every request fires at its own scaled trace time.
    for (std::size_t i = 0; i < workload.requests.size(); ++i)
      sim.schedule_at(state.scaled(workload.requests[i].at),
                      [&state, i] { state.issue(i); });
  } else {
    // Kick off the first request of every connection at its scaled time;
    // completions chain the rest (HTTP/1.1 serialization).
    for (auto& [conn, first] : state.kickoff) {
      state.conn_pos[conn] = state.conn_offset[conn] + 1;
      const std::size_t fi = first;
      const sim::SimTime at = state.scaled(workload.requests[fi].at);
      sim.schedule_at(at, [&state, fi] { state.issue(fi); });
    }
  }

  sim.run();

  // Gather back-end aggregates.
  auto& m = state.metrics;
  m.per_server_served.resize(cluster.size());
  m.per_server_disk_busy.resize(cluster.size());
  m.per_server_cpu_busy.resize(cluster.size());
  for (std::uint32_t s = 0; s < cluster.size(); ++s) {
    const auto& be = cluster.backend(s);
    m.per_server_served[s] = be.stats().requests_served;
    m.per_server_disk_busy[s] = be.disk().busy_time();
    m.per_server_cpu_busy[s] = be.cpu().busy_time();
    m.disk_reads += be.stats().disk_reads;
    m.prefetch_reads += be.stats().prefetches_issued;
    m.cache.hits += be.cache().stats().hits;
    m.cache.misses += be.cache().stats().misses;
    m.cache.demand_evictions += be.cache().stats().demand_evictions;
    m.cache.pinned_evictions += be.cache().stats().pinned_evictions;
    m.energy_full_power_seconds += be.energy(sim.now());
  }
  m.frontend_busy = cluster.frontend_busy();
  m.interconnect_busy = cluster.interconnect_busy();

  // Conservation: every issued request ends exactly once, as a success or
  // (in fault runs) a permanent failure.
  if (m.completed + m.failed != workload.requests.size())
    throw std::logic_error("play_workload: not all requests settled");
  return std::move(state.metrics);
}

}  // namespace prord::core
