// Mining micro-benchmarks and predictor-accuracy ablation.
//
// Two parts:
//  1. google-benchmark timings of the mining data structures themselves —
//     training throughput and per-prediction latency for the three
//     predictors at orders 1..3, Apriori rule mining, and Algorithm 3
//     planning and its periodic round. These are the overheads Section
//     4.1.1(i) worries about.
//  2. An accuracy table: next-page hit rate of the candidate-path scheme
//     (Algorithms 1-2) vs PPM [26], the dependency graph [19] and Apriori
//     association rules [23][24] on held-out sessions — reproducing the
//     comparison the paper cites from [21] (sequence beats set-based).
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "cluster/cluster.h"
#include "logmining/association_rules.h"
#include "logmining/mining_model.h"
#include "logmining/replication.h"
#include "net/live_cluster.h"
#include "policies/prord.h"
#include "support/reference_replication_round.h"
#include "trace/models.h"
#include "trace/workload.h"
#include "util/table.h"

namespace {

using namespace prord;

struct Data {
  Data() {
    auto spec = trace::synthetic_spec();
    spec.gen.target_requests = 20'000;
    auto built = trace::build(spec);
    auto workload = trace::build_workload(built.trace.records);
    sessions = logmining::build_sessions(workload.requests);
    const std::size_t split = sessions.size() / 2;
    train.assign(sessions.begin(), sessions.begin() + split);
    test.assign(sessions.begin() + split, sessions.end());
  }
  std::vector<logmining::Session> sessions, train, test;
};

Data& data() {
  static Data d;
  return d;
}

void bm_predictor_train(benchmark::State& state) {
  const auto kind = static_cast<logmining::PredictorKind>(state.range(0));
  const auto order = static_cast<unsigned>(state.range(1));
  std::size_t pages = 0;
  for (auto _ : state) {
    auto p = logmining::make_predictor(kind, order);
    for (const auto& s : data().train) {
      p->observe(s.pages);
      pages += s.pages.size();
    }
    benchmark::DoNotOptimize(p->num_entries());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pages));
}

void bm_predictor_predict(benchmark::State& state) {
  const auto kind = static_cast<logmining::PredictorKind>(state.range(0));
  const auto order = static_cast<unsigned>(state.range(1));
  auto p = logmining::make_predictor(kind, order);
  for (const auto& s : data().train) p->observe(s.pages);
  std::size_t i = 0;
  std::size_t predictions = 0;
  for (auto _ : state) {
    const auto& s = data().test[i++ % data().test.size()];
    benchmark::DoNotOptimize(p->predict(s.pages, 0.1));
    ++predictions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(predictions));
}

void bm_apriori_train(benchmark::State& state) {
  logmining::AprioriOptions opt;
  opt.min_support = 0.02;
  for (auto _ : state) {
    logmining::AssociationRuleMiner miner(opt);
    miner.train(data().train);
    benchmark::DoNotOptimize(miner.rules().size());
  }
}

void bm_replication_plan(benchmark::State& state) {
  logmining::PopularityTracker tracker(0);
  util::Rng rng(1);
  for (int i = 0; i < 100'000; ++i)
    tracker.record_hit(static_cast<trace::FileId>(rng.below(4000)), 0);
  for (auto _ : state) {
    const auto table = tracker.rank_table(0);
    benchmark::DoNotOptimize(
        logmining::plan_replication(table, 8).size());
  }
}

/// The Fig. 8 cell (cs-dept trace, PRORD, 8 back-ends, 30% memory),
/// assembled the way run_experiment assembles it, and the stream its
/// replication rounds see: the warm-up play of the training trace, then
/// the evaluation trace on a clock that runs on.
struct RoundReplay {
  RoundReplay() {
    const core::ExperimentConfig sim;  // the sim's defaults
    net::LiveConfig config;
    config.policy = core::PolicyKind::kPrord;
    config.backends = sim.params.num_backends;
    config.workload = trace::cs_dept_spec();
    config.memory_fraction = sim.memory_fraction;
    config.pinned_fraction = sim.pinned_fraction;
    if (!net::prepare_live_setup(config, setup))
      throw std::runtime_error("bm_replication_round: no fig8 setup");
    stream = setup.train.requests;
    const sim::SimTime offset =
        stream.empty() ? 0 : stream.back().at + sim::sec(1.0);
    for (trace::Request req : setup.eval.requests) {
      req.at += offset;
      stream.push_back(req);
    }
  }
  net::LiveSetup setup;
  std::vector<trace::Request> stream;
};

const RoundReplay& round_replay() {
  static const RoundReplay r;
  return r;
}

/// Requests between two replication rounds. The sim's arrivals outrun its
/// service, so its 30 s round period (compressed with the arrivals) fires
/// about once per 17 requests played: 50,063 rounds per 16-cell sim_fig8
/// repetition.
constexpr std::size_t kRequestsPerRound = 17;

/// Algorithm 3's periodic round as PRORD runs it on the Fig. 8 cell: every
/// request records a hit and lands in its dispatcher-assigned back-end's
/// demand cache (PRORD's on_routed), and every kRequestsPerRound requests
/// a round runs. Arg 0 is the round PRORD runs
/// (policies::replication_round), arg 1 the reference round it replaced
/// (rank max_directives rows, plan and walk them all). Only the rounds are
/// timed; the us_per_round counter is the cost of one.
void bm_replication_round(benchmark::State& state) {
  const RoundReplay& r = round_replay();
  const policies::PrordOptions options;
  std::size_t rounds = 0;
  double round_s = 0.0;
  for (auto _ : state) {
    logmining::PopularityTracker tracker = r.setup.model->popularity();
    sim::Simulator sim;
    cluster::Cluster cluster(sim, r.setup.cfg.params, r.setup.demand,
                             r.setup.pinned);
    policies::HolderRegistry replicated;
    policies::ReplicationRoundScratch scratch;
    test_support::ReferenceRoundScratch reference;
    double seconds = 0.0;
    for (std::size_t i = 0; i < r.stream.size(); ++i) {
      const trace::Request& req = r.stream[i];
      tracker.record_hit(req.file, req.at);
      const auto held = cluster.dispatcher().peek(req.file);
      const cluster::ServerId server =
          held.empty() ? req.file % cluster.size() : held.front();
      if (!cluster.backend(server).caches(req.file))
        cluster.backend(server).cache().insert_demand(req.file, req.bytes);
      cluster.dispatcher().assign(req.file, server);
      if ((i + 1) % kRequestsPerRound != 0) continue;
      if (req.at > sim.now()) sim.schedule_at(req.at, [] {});
      sim.run(req.at);  // replica transfers land
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t pushed =
          state.range(0) == 0
              ? policies::replication_round(tracker, options,
                                            r.setup.eval.files, cluster,
                                            replicated, scratch)
              : test_support::reference_replication_round(
                    tracker, options, r.setup.eval.files, cluster, replicated,
                    reference);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      benchmark::DoNotOptimize(pushed);
      ++rounds;
    }
    state.SetIterationTime(seconds);
    round_s += seconds;
  }
  state.counters["us_per_round"] =
      rounds ? round_s * 1e6 / static_cast<double>(rounds) : 0.0;
  state.counters["rounds"] = static_cast<double>(rounds);
}

/// Top-1 next-page accuracy of a predictor over held-out sessions.
template <typename PredictFn>
double accuracy(PredictFn&& predict) {
  std::size_t hits = 0, trials = 0;
  for (const auto& s : data().test) {
    for (std::size_t i = 1; i < s.pages.size(); ++i) {
      const auto ctx = std::span(s.pages).subspan(0, i);
      const auto pred = predict(ctx);
      if (!pred) continue;
      ++trials;
      hits += (pred->page == s.pages[i]);
    }
  }
  return trials ? static_cast<double>(hits) / static_cast<double>(trials)
                : 0.0;
}

void print_accuracy_table() {
  std::cout << "\n=== Predictor accuracy on held-out sessions (top-1, "
               "min-confidence 0.1) ===\n\n";
  util::Table table({"scheme", "order/window", "accuracy", "entries"});

  for (unsigned order = 1; order <= 3; ++order) {
    for (const auto kind : {logmining::PredictorKind::kCandidatePath,
                            logmining::PredictorKind::kMarkov,
                            logmining::PredictorKind::kDependencyGraph}) {
      auto p = logmining::make_predictor(kind, order);
      for (const auto& s : data().train) p->observe(s.pages);
      const double acc = accuracy([&](std::span<const trace::FileId> ctx) {
        return p->predict(ctx, 0.1);
      });
      const char* name = kind == logmining::PredictorKind::kCandidatePath
                             ? "candidate-path (Alg. 1-2)"
                         : kind == logmining::PredictorKind::kMarkov
                             ? "PPM [26]"
                             : "dependency graph [19]";
      table.add_row({name, std::to_string(order), util::Table::num(acc, 3),
                     std::to_string(p->num_entries())});
    }
  }
  // Set-based association rules (the paper's point: sequences win).
  logmining::AprioriOptions opt;
  opt.min_support = 0.005;
  opt.min_confidence = 0.1;
  logmining::AssociationRuleMiner miner(opt);
  miner.train(data().train);
  const double acc = accuracy([&](std::span<const trace::FileId> ctx) {
    return miner.predict(ctx, 0.1);
  });
  table.add_row({"association rules [23,24]", "-", util::Table::num(acc, 3),
                 std::to_string(miner.rules().size())});
  table.print(std::cout);
  std::cout << "\nPaper shape ([21] via Section 2.2.3): sequence-based "
               "predictors beat set-based association rules.\n";
}

}  // namespace

BENCHMARK(bm_predictor_train)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_predictor_predict)->ArgsProduct({{0, 1, 2}, {1, 2, 3}});
BENCHMARK(bm_apriori_train)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_replication_plan)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_replication_round)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_accuracy_table();
  return 0;
}
