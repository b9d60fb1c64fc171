#include "layers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/stream_sessionizer.h"
#include "cluster/cache.h"
#include "logmining/mining_model.h"
#include "logmining/popularity.h"
#include "net/http.h"
#include "net/live_router.h"
#include "policies/prord.h"
#include "predict/predictor_iface.h"

namespace perfbench {
namespace {

using namespace prord;

/// Timed passes per replay; the median pass is reported.
constexpr int kPasses = 3;

/// Wall time and calling-thread allocations of one timed section.
struct Section {
  double start_s = now_s();
  std::uint64_t start_allocs = thread_allocs();

  double seconds() const { return now_s() - start_s; }
  std::uint64_t allocs() const { return thread_allocs() - start_allocs; }
};

double per_op(double total, std::size_t ops) {
  return ops ? total / static_cast<double>(ops) : 0.0;
}

const std::vector<trace::Request>& eval_stream(const LayerPlan& plan) {
  return plan.setup->eval.requests;
}

/// One fresh mined model per pass: PRORD's popularity tracking writes the
/// model it routes with, so a replay must not reuse another's.
std::vector<std::shared_ptr<logmining::MiningModel>> replay_mining(
    const LayerPlan& plan, Report& report) {
  std::vector<std::shared_ptr<logmining::MiningModel>> models;
  std::vector<double> seconds;
  for (int p = 0; p < kPasses; ++p) {
    const Section s;
    models.push_back(std::make_shared<logmining::MiningModel>(
        plan.setup->train.requests, plan.setup->mining));
    seconds.push_back(s.seconds());
  }
  report.set("logmining.mine_s", median(seconds));
  return models;
}

void replay_cache(const LayerPlan& plan, Report& report) {
  std::vector<double> ns, allocs;
  for (int p = 0; p < kPasses; ++p) {
    cluster::MemoryCache cache(plan.setup->demand, plan.setup->pinned);
    std::size_t ops = 0;
    const Section s;
    for (const trace::Request& req : eval_stream(plan)) {
      if (req.is_dynamic) continue;
      if (!cache.lookup(req.file)) cache.insert_demand(req.file, req.bytes);
      ++ops;
    }
    ns.push_back(per_op(s.seconds() * 1e9, ops));
    allocs.push_back(per_op(static_cast<double>(s.allocs()), ops));
    const cluster::CacheStats& st = cache.stats();
    report.check(st.hits + st.misses == ops,
                 "cluster replay: hits + misses != lookups");
  }
  report.set("cluster.cache_ns", median(ns));
  report.set("cluster.cache_allocs", median(allocs));
}

/// PopularityTracker as PRORD drives it: record_hit per routed request,
/// top_rank_table once per replication round.
void replay_popularity(const LayerPlan& plan, Report& report) {
  const std::size_t k = policies::PrordOptions{}.max_replication_pushes * 4;
  const std::size_t cadence = std::max<std::size_t>(1, plan.requests_per_round);
  std::vector<double> record_ns, round_us;
  for (int p = 0; p < kPasses; ++p) {
    logmining::PopularityTracker tracker(plan.setup->mining.popularity_halflife);
    tracker.seed(plan.setup->train.requests);
    std::vector<logmining::RankEntry> top;
    double record_s = 0.0, rank_s = 0.0;
    std::size_t records = 0, rounds = 0;
    const auto& stream = eval_stream(plan);
    for (std::size_t begin = 0; begin < stream.size(); begin += cadence) {
      const std::size_t end = std::min(stream.size(), begin + cadence);
      const Section rec;
      for (std::size_t i = begin; i < end; ++i)
        tracker.record_hit(stream[i].file, stream[i].at);
      record_s += rec.seconds();
      records += end - begin;
      const Section rank;
      tracker.top_rank_table(stream[end - 1].at, k, top);
      rank_s += rank.seconds();
      ++rounds;
      report.check(!top.empty(), "popularity replay: empty rank table");
    }
    record_ns.push_back(per_op(record_s * 1e9, records));
    round_us.push_back(per_op(rank_s * 1e6, rounds));
  }
  report.set("logmining.record_ns", median(record_ns));
  report.set("logmining.rank_us_per_round", median(round_us));
}

/// The adaptation loop's two costs: StreamSessionizer::observe per request
/// and, once per epoch of trace time, snapshot + streaming re-mine.
void replay_adapt(const LayerPlan& plan,
                  const logmining::MiningModel& warm_start, Report& report) {
  const core::AdaptOptions& opts = plan.adapt;
  std::vector<double> observe_ns, remine_ms, allocs;
  for (int p = 0; p < kPasses; ++p) {
    adapt::StreamSessionizer sessionizer(opts.window,
                                         plan.setup->mining.session);
    const auto& stream = eval_stream(plan);
    double observe_s = 0.0, remine_s = 0.0;
    std::uint64_t alloc_count = 0;
    std::size_t epochs = 0, begin = 0;
    sim::SimTime next_epoch = stream.empty() ? 0 : stream.front().at + opts.epoch;
    while (begin < stream.size()) {
      std::size_t end = begin;
      while (end < stream.size() && stream[end].at < next_epoch) ++end;
      const Section obs;
      for (std::size_t i = begin; i < end; ++i) sessionizer.observe(stream[i]);
      observe_s += obs.seconds();
      alloc_count += obs.allocs();
      begin = end;
      if (end == stream.size()) break;
      const Section mine;
      const adapt::StreamSnapshot snap = sessionizer.snapshot(next_epoch);
      const logmining::MiningModel model(snap.sessions, snap.requests,
                                         plan.setup->mining,
                                         opts.warm_start ? &warm_start : nullptr);
      remine_s += mine.seconds();
      alloc_count += mine.allocs();
      ++epochs;
      next_epoch += opts.epoch;
    }
    observe_ns.push_back(per_op(observe_s * 1e9, stream.size()));
    remine_ms.push_back(per_op(remine_s * 1e3, epochs));
    allocs.push_back(per_op(static_cast<double>(alloc_count), stream.size()));
    report.check(epochs > 0, "adapt replay: no epoch boundary in the stream");
  }
  report.set("adapt.observe_ns", median(observe_ns));
  report.set("adapt.remine_ms", median(remine_ms));
  report.set("adapt.allocs_per_req", median(allocs));
}

/// The distributor's HTTP work per request: parse the client's request
/// bytes, render the response the worker produced.
void replay_http(const LayerPlan& plan, Report& report) {
  const auto& stream = eval_stream(plan);
  const trace::FileTable& files = plan.setup->eval.files;
  std::vector<std::string> wire;
  wire.reserve(stream.size());
  std::size_t target_bytes = 0;
  std::uint32_t max_body = 0;
  for (const trace::Request& req : stream) {
    wire.push_back(net::format_request(files.url(req.file)));
    target_bytes += files.url(req.file).size();
    max_body = std::max(max_body, req.bytes);
  }

  std::vector<double> parse_ns, parse_allocs;
  for (int p = 0; p < kPasses; ++p) {
    net::RequestParser parser;
    std::size_t parsed_bytes = 0;
    const Section s;
    for (const std::string& bytes : wire) {
      parser.consume(bytes);
      if (auto msg = parser.pop()) parsed_bytes += msg->target.size();
    }
    parse_ns.push_back(per_op(s.seconds() * 1e9, wire.size()));
    parse_allocs.push_back(
        per_op(static_cast<double>(s.allocs()), wire.size()));
    report.check(!parser.failed() && parsed_bytes == target_bytes,
                 "http replay: parsed targets differ from the formatted ones");
  }
  report.set("net.parse_ns", median(parse_ns));
  report.set("net.parse_allocs", median(parse_allocs));

  const std::string body(max_body, 'x');
  const std::string_view extra = "X-Backend: 0\r\nX-Cache: HIT\r\n";
  std::vector<double> format_ns, format_allocs;
  for (int p = 0; p < kPasses; ++p) {
    std::size_t out_bytes = 0;
    const Section s;
    for (const trace::Request& req : stream) {
      const std::string msg = net::format_response(
          200, "OK", std::string_view(body.data(), req.bytes), extra);
      out_bytes += msg.size();
    }
    format_ns.push_back(per_op(s.seconds() * 1e9, stream.size()));
    format_allocs.push_back(
        per_op(static_cast<double>(s.allocs()), stream.size()));
    report.check(out_bytes > 0, "http replay: empty responses");
  }
  report.set("net.format_ns", median(format_ns));
  report.set("net.format_allocs", median(format_allocs));
}

/// The belief router's per-request sequence on the distributor thread,
/// with no sockets: advance the clock, route, mirror forward and response.
void replay_route(const LayerPlan& plan,
                  const std::vector<std::shared_ptr<logmining::MiningModel>>& models,
                  Report& report) {
  const auto& stream = eval_stream(plan);
  std::vector<double> ns, allocs;
  for (int p = 0; p < kPasses; ++p) {
    net::LiveRouter router(plan.setup->cfg, models[static_cast<std::size_t>(p)],
                           plan.setup->eval.files, plan.setup->demand,
                           plan.setup->pinned);
    router.start();
    std::size_t routed = 0;
    const Section s;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const trace::Request& req = stream[i];
      router.advance_to(static_cast<sim::SimTime>(
          static_cast<double>(i) * plan.route_interval_us));
      const core::RoutedRequest r = router.route(req);
      if (!r.valid) continue;
      router.on_forwarded(req, r.decision.server);
      router.on_response(req, r.decision.server);
      ++routed;
    }
    ns.push_back(per_op(s.seconds() * 1e9, stream.size()));
    allocs.push_back(per_op(static_cast<double>(s.allocs()), stream.size()));
    router.finish();
    report.check(routed == stream.size(), "route replay: unroutable request");
  }
  report.set("net.route_ns", median(ns));
  report.set("net.route_allocs", median(allocs));
}

/// IPredictorLink::feed on the synchronous (threads = 0) service, fed the
/// observations the distributor would send. The service runs the Mithril
/// miner with bench_perf's live prefetch parameters.
void replay_predict(const LayerPlan& plan,
                    const std::vector<std::shared_ptr<logmining::MiningModel>>& models,
                    Report& report) {
  predict::PredictorParams params;
  params.algo = predict::Algo::kMithril;
  params.confidence = 0.1;
  params.max_associations = 8;
  params.threads = 0;
  const auto& stream = eval_stream(plan);
  std::vector<double> ns;
  for (int p = 0; p < kPasses; ++p) {
    auto service = predict::make_prediction_service(
        params, models[static_cast<std::size_t>(p)]);
    auto link = service->register_link("perfbench");
    std::size_t fed = 0, accepted = 0;
    const Section s;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const trace::Request& req = stream[i];
      if (req.is_dynamic) continue;
      predict::Observation obs;
      obs.conn = req.conn;
      obs.file = req.file;
      obs.main_page = !req.is_embedded;
      obs.t_us = static_cast<std::int64_t>(static_cast<double>(i) *
                                           plan.route_interval_us);
      accepted += link->feed(obs) ? 1 : 0;
      ++fed;
    }
    ns.push_back(per_op(s.seconds() * 1e9, fed));
    report.check(accepted == fed, "predict replay: synchronous feed dropped");
  }
  report.set("predict.feed_ns", median(ns));
}

}  // namespace

void replay_layers(const LayerPlan& plan, Report& report) {
  const auto models = replay_mining(plan, report);
  replay_cache(plan, report);
  replay_popularity(plan, report);
  if (plan.adapt.enabled) replay_adapt(plan, *models.front(), report);
  if (plan.net) {
    replay_http(plan, report);
    replay_route(plan, models, report);
    replay_predict(plan, models, report);
  }
}

}  // namespace perfbench
