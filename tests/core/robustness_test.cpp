// Failure injection and cross-policy property sweeps.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/workload_player.h"
#include "policies/ext_lard_phttp.h"
#include "policies/prord.h"
#include "policies/wrr.h"

namespace prord::core {
namespace {

trace::Workload small_workload(std::uint64_t seed = 41) {
  trace::SiteBuildParams sp;
  sp.sections = 3;
  sp.pages_per_section = 15;
  sp.seed = seed;
  const auto site = trace::build_site(sp);
  trace::TraceGenParams gp;
  gp.target_requests = 2500;
  gp.duration_sec = 250;
  gp.seed = seed + 1;
  return trace::build_workload(trace::generate_trace(site, gp).records);
}

// ---------------------------------------------------------------------------
// Failure injection.

TEST(Robustness, ServerDownBeforeRunIsNeverUsed) {
  const auto w = small_workload();
  for (int which = 0; which < 2; ++which) {
    sim::Simulator sim;
    cluster::ClusterParams params;
    params.num_backends = 4;
    cluster::Cluster cl(sim, params, 1 << 21, 1 << 19);
    cl.backend(2).set_power_state(cluster::PowerState::kOff);

    std::unique_ptr<policies::DistributionPolicy> policy;
    if (which == 0)
      policy = std::make_unique<policies::WeightedRoundRobin>();
    else
      policy = std::make_unique<policies::Lard>();
    const auto m = play_workload(sim, cl, *policy, w);
    EXPECT_EQ(m.completed, w.requests.size());
    EXPECT_EQ(m.per_server_served[2], 0u) << "policy " << which;
  }
}

// ---------------------------------------------------------------------------
// Shared crash-and-rejoin schedule, every headline policy. One fixture
// replaces the old per-policy mid-run failure tests: the same abrupt
// fault plan (server 1 dies a quarter in, rejoins cold at the half-way
// mark) must leave every policy with conservation intact and the fault
// accounting consistent.

class PolicyFaultTolerance : public ::testing::TestWithParam<PolicyKind> {
 protected:
  static ExperimentConfig faulty_config(PolicyKind kind) {
    ExperimentConfig config;
    config.workload = trace::synthetic_spec(7);
    config.workload.site.sections = 3;
    config.workload.site.pages_per_section = 20;
    config.workload.gen.target_requests = 2500;
    config.workload.gen.duration_sec = 250;
    config.policy = kind;
    config.faults.plan = "crash@60s:srv1,restart@120s:srv1";
    config.faults.heartbeat_interval = sim::sec(2.0);
    config.faults.max_retries = 3;
    return config;
  }
};

TEST_P(PolicyFaultTolerance, CrashAndRejoinConservesRequests) {
  const auto r = run_experiment(faulty_config(GetParam()));

  // Conservation: every issued request settles exactly once.
  EXPECT_EQ(r.metrics.completed + r.metrics.failed, r.num_requests);
  std::uint64_t served = 0;
  for (const auto c : r.metrics.per_server_served) served += c;
  EXPECT_EQ(served, r.metrics.completed);

  // The plan fired and the detector saw both edges.
  EXPECT_EQ(r.fault_stats.crashes, 1u);
  EXPECT_EQ(r.fault_stats.restarts, 1u);
  EXPECT_EQ(r.fault_stats.down_detections, 1u);
  EXPECT_EQ(r.fault_stats.up_detections, 1u);
  EXPECT_GT(r.fault_stats.detection_latency_us.count(), 0u);
  EXPECT_GT(r.fault_stats.believed_unavailable, 0);
  EXPECT_GT(r.fault_stats.actual_unavailable, 0);
  // The cold rejoin opened exactly one re-warm episode.
  ASSERT_EQ(r.rewarms.size(), 1u);
  EXPECT_EQ(r.rewarms[0].server, 1u);
}

TEST_P(PolicyFaultTolerance, FaultRunIsDeterministic) {
  const auto config = faulty_config(GetParam());
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.failed, b.metrics.failed);
  EXPECT_EQ(a.metrics.retries, b.metrics.retries);
  EXPECT_EQ(a.metrics.redispatches, b.metrics.redispatches);
  EXPECT_EQ(a.metrics.last_completion, b.metrics.last_completion);
  EXPECT_EQ(a.fault_stats.down_detections, b.fault_stats.down_detections);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyFaultTolerance,
    ::testing::Values(PolicyKind::kWrr, PolicyKind::kLard,
                      PolicyKind::kExtLardPhttp, PolicyKind::kPress,
                      PolicyKind::kPrord),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
      std::string name = policy_label(info.param);
      for (auto& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(Robustness, HibernatedServerRejoins) {
  const auto w = small_workload();
  sim::Simulator sim;
  cluster::ClusterParams params;
  params.num_backends = 3;
  cluster::Cluster cl(sim, params, 1 << 21, 1 << 19);
  // WRR cycles over available servers, so the rejoining node picks up new
  // connections as soon as it wakes.
  policies::WeightedRoundRobin wrr;
  cl.backend(2).set_power_state(cluster::PowerState::kHibernate);
  sim.schedule(sim::sec(30.0), [&] {
    cl.backend(2).set_power_state(cluster::PowerState::kOn);
  });
  const auto m = play_workload(sim, cl, wrr, w);
  EXPECT_EQ(m.completed, w.requests.size());
  EXPECT_GT(m.per_server_served[2], 0u);  // picked up work after waking
  EXPECT_GT(m.energy_full_power_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Property sweep: invariants that must hold for every policy and seed.

struct SweepParam {
  PolicyKind policy;
  std::uint64_t seed;
};

class PolicyInvariants : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolicyInvariants, ConservationAndAccounting) {
  const auto [kind, seed] = GetParam();
  ExperimentConfig config;
  config.workload = trace::synthetic_spec(seed);
  config.workload.site.sections = 3;
  config.workload.site.pages_per_section = 20;
  config.workload.gen.target_requests = 2500;
  config.workload.gen.duration_sec = 250;
  config.policy = kind;
  const auto r = run_experiment(config);

  // Conservation: every request completes exactly once, on some server.
  EXPECT_EQ(r.metrics.completed, r.num_requests);
  std::uint64_t served = 0;
  for (const auto c : r.metrics.per_server_served) served += c;
  EXPECT_EQ(served, r.num_requests);

  // Accounting: cache lookups can only come from non-dynamic requests.
  EXPECT_LE(r.metrics.cache.hits + r.metrics.cache.misses, r.num_requests);
  // Dispatches and handoffs are bounded by requests.
  EXPECT_LE(r.metrics.dispatches, r.num_requests);
  EXPECT_LE(r.metrics.handoffs, r.num_requests);
  // Time sanity.
  EXPECT_GT(r.metrics.last_completion, r.metrics.first_issue);
  EXPECT_GT(r.metrics.response_time_us.min(), 0.0);
  // Histogram and stats agree on the sample count.
  EXPECT_EQ(r.metrics.response_hist.count(),
            r.metrics.response_time_us.count());
}

TEST_P(PolicyInvariants, Deterministic) {
  const auto [kind, seed] = GetParam();
  ExperimentConfig config;
  config.workload = trace::synthetic_spec(seed);
  config.workload.site.sections = 3;
  config.workload.site.pages_per_section = 20;
  config.workload.gen.target_requests = 1500;
  config.workload.gen.duration_sec = 150;
  config.policy = kind;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  EXPECT_EQ(a.metrics.dispatches, b.metrics.dispatches);
  EXPECT_EQ(a.metrics.handoffs, b.metrics.handoffs);
  EXPECT_EQ(a.metrics.disk_reads, b.metrics.disk_reads);
  EXPECT_EQ(a.metrics.last_completion, b.metrics.last_completion);
}

std::string sweep_name(
    const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = policy_label(info.param.policy);
  for (auto& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesSeeds, PolicyInvariants,
    ::testing::Values(SweepParam{PolicyKind::kWrr, 1},
                      SweepParam{PolicyKind::kWrr, 2},
                      SweepParam{PolicyKind::kLard, 1},
                      SweepParam{PolicyKind::kLard, 2},
                      SweepParam{PolicyKind::kLardReplicated, 1},
                      SweepParam{PolicyKind::kExtLardPhttp, 1},
                      SweepParam{PolicyKind::kExtLardPhttp, 2},
                      SweepParam{PolicyKind::kPress, 1},
                      SweepParam{PolicyKind::kPress, 2},
                      SweepParam{PolicyKind::kPrord, 1},
                      SweepParam{PolicyKind::kPrord, 2},
                      SweepParam{PolicyKind::kLardBundle, 1},
                      SweepParam{PolicyKind::kLardDistribution, 1},
                      SweepParam{PolicyKind::kLardPrefetchNav, 1}),
    sweep_name);

}  // namespace
}  // namespace prord::core
