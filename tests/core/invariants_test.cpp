// Cross-policy simulation conservation checks.
//
// Every PolicyKind drives a small workload through the cluster behind a
// checking decorator that verifies, at every routing and completion event:
//   - per-back-end cache occupancy never exceeds capacity in either region
//     (evictions only happen inside event processing, and an over-capacity
//     state would persist to the next callback, so this brackets every
//     eviction),
// and at drain:
//   - requests injected == completions + in-flight (in-flight == 0 once
//     the event set drains),
//   - dispatcher contacts <= requests routed.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "core/workload_player.h"
#include "logmining/mining_model.h"
#include "policies/ext_lard_phttp.h"
#include "policies/press.h"
#include "policies/prord.h"
#include "policies/wrr.h"
#include "trace/models.h"

namespace prord::core {
namespace {

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kWrr,          PolicyKind::kLard,
    PolicyKind::kLardReplicated, PolicyKind::kExtLardPhttp,
    PolicyKind::kPress,        PolicyKind::kPrord,
    PolicyKind::kLardBundle,   PolicyKind::kLardDistribution,
    PolicyKind::kLardPrefetchNav, PolicyKind::kPrordNoReplication};

trace::WorkloadSpec small_spec() {
  auto spec = trace::synthetic_spec();
  spec.site.sections = 3;
  spec.site.pages_per_section = 20;
  spec.gen.target_requests = 2000;
  spec.gen.duration_sec = 300;
  return spec;
}

/// Forwards to the real policy; checks cache occupancy against capacity on
/// every callback and counts routes/dispatches for the drain invariants.
class InvariantCheckingPolicy final : public policies::DistributionPolicy {
 public:
  explicit InvariantCheckingPolicy(
      std::unique_ptr<policies::DistributionPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void start(cluster::Cluster& cluster) override { inner_->start(cluster); }
  void finish(cluster::Cluster& cluster) override { inner_->finish(cluster); }
  void reset_counters() override { inner_->reset_counters(); }

  policies::RouteDecision route(policies::RouteContext& ctx,
                                cluster::Cluster& cluster) override {
    ++routed_;
    const auto decision = inner_->route(ctx, cluster);
    if (decision.contacted_dispatcher) ++dispatches_;
    check_occupancy(cluster);
    return decision;
  }

  void on_routed(const trace::Request& req, policies::ServerId server,
                 cluster::Cluster& cluster) override {
    inner_->on_routed(req, server, cluster);
    check_occupancy(cluster);
  }

  void on_complete(const trace::Request& req, policies::ServerId server,
                   cluster::Cluster& cluster) override {
    inner_->on_complete(req, server, cluster);
    check_occupancy(cluster);
  }

  std::uint64_t routed() const { return routed_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t occupancy_violations() const { return violations_; }

 private:
  void check_occupancy(cluster::Cluster& cluster) {
    for (std::uint32_t s = 0; s < cluster.size(); ++s) {
      const auto& cache = cluster.backend(s).cache();
      if (cache.demand_bytes() > cache.demand_capacity() ||
          cache.pinned_bytes() > cache.pinned_capacity())
        ++violations_;
    }
  }

  std::unique_ptr<policies::DistributionPolicy> inner_;
  std::uint64_t routed_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t violations_ = 0;
};

std::unique_ptr<policies::DistributionPolicy> make_inner(
    PolicyKind kind, std::shared_ptr<logmining::MiningModel> model,
    const trace::FileTable& files) {
  switch (kind) {
    case PolicyKind::kWrr:
      return std::make_unique<policies::WeightedRoundRobin>();
    case PolicyKind::kLard:
      return std::make_unique<policies::Lard>();
    case PolicyKind::kLardReplicated: {
      policies::LardOptions opts;
      opts.replication = true;
      return std::make_unique<policies::Lard>(opts);
    }
    case PolicyKind::kExtLardPhttp:
      return std::make_unique<policies::ExtLardPhttp>();
    case PolicyKind::kPress:
      return std::make_unique<policies::Press>();
    case PolicyKind::kPrord:
      return std::make_unique<policies::Prord>(std::move(model), files,
                                               policies::prord_full_options());
    case PolicyKind::kLardBundle:
      return std::make_unique<policies::Prord>(std::move(model), files,
                                               policies::lard_bundle_options());
    case PolicyKind::kLardDistribution:
      return std::make_unique<policies::Prord>(
          std::move(model), files, policies::lard_distribution_options());
    case PolicyKind::kLardPrefetchNav:
      return std::make_unique<policies::Prord>(
          std::move(model), files, policies::lard_prefetch_nav_options());
    case PolicyKind::kPrordNoReplication:
      return std::make_unique<policies::Prord>(
          std::move(model), files, policies::prord_no_replication_options());
  }
  return nullptr;
}

struct DrainReport {
  RunMetrics metrics;
  std::uint64_t routed = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t occupancy_violations = 0;
  std::uint32_t in_flight_at_drain = 0;
  std::uint64_t demand_evictions = 0;
  std::size_t requests = 0;
};

DrainReport play_checked(PolicyKind kind) {
  const auto spec = small_spec();
  const trace::SiteModel site = trace::build_site(spec.site);
  const trace::GeneratedTrace eval_trace = trace::generate_trace(site, spec.gen);
  auto train_gen = spec.gen;
  train_gen.seed += 1000;
  const trace::GeneratedTrace train_trace =
      trace::generate_trace(site, train_gen);
  trace::Workload train = trace::build_workload(train_trace.records);
  trace::Workload eval =
      trace::build_workload(eval_trace.records, {}, train.files);

  std::shared_ptr<logmining::MiningModel> model;
  if (policy_uses_mining(kind))
    model = std::make_shared<logmining::MiningModel>(train.requests,
                                                     logmining::MiningConfig{});

  // Cache small enough (10% of the site, split 8 ways) that the demand
  // region must evict, exercising the occupancy invariant for real.
  cluster::ClusterParams params;
  const std::uint64_t capacity = std::max<std::uint64_t>(
      64 * 1024,
      static_cast<std::uint64_t>(0.10 * static_cast<double>(site.total_bytes()) /
                                 params.num_backends));
  const std::uint64_t pinned = capacity / 4;

  sim::Simulator simulator;
  cluster::Cluster cl(simulator, params, capacity - pinned, pinned);
  InvariantCheckingPolicy policy(make_inner(kind, model, eval.files));

  PlayerOptions opts;
  opts.time_scale = 50.0;
  DrainReport report;
  report.metrics = play_workload(simulator, cl, policy, eval, opts);
  report.routed = policy.routed();
  report.dispatches = policy.dispatches();
  report.occupancy_violations = policy.occupancy_violations();
  for (std::uint32_t s = 0; s < cl.size(); ++s) {
    report.in_flight_at_drain += cl.backend(s).load();
    report.demand_evictions += cl.backend(s).cache().stats().demand_evictions;
  }
  report.requests = eval.requests.size();
  return report;
}

TEST(SimulationInvariants, HoldForEveryPolicy) {
  for (const auto kind : kAllPolicies) {
    SCOPED_TRACE(policy_label(kind));
    const auto r = play_checked(kind);

    // Conservation: everything injected either completed or is in flight,
    // and nothing is in flight once the event set drains.
    EXPECT_EQ(r.in_flight_at_drain, 0u);
    EXPECT_EQ(r.metrics.completed + r.in_flight_at_drain, r.requests);
    EXPECT_EQ(r.routed, r.requests);

    // The distributor contacts the dispatcher at most once per request.
    EXPECT_LE(r.dispatches, r.routed);
    EXPECT_EQ(r.dispatches, r.metrics.dispatches);

    // Cache occupancy stayed within capacity at every observed event.
    EXPECT_EQ(r.occupancy_violations, 0u);
  }
}

TEST(SimulationInvariants, SmallCacheActuallyEvicts) {
  // Guard against the occupancy check passing vacuously: the 10% cache
  // must be under enough pressure that demand evictions happen.
  const auto r = play_checked(PolicyKind::kLard);
  EXPECT_GT(r.demand_evictions, 0u);
}

TEST(SimulationInvariants, MiningPoliciesStayConservative) {
  // PRORD's proactive machinery (prefetch + replication) moves bytes into
  // pinned regions; conservation and occupancy must still hold — covered
  // above — and its dispatch rate must stay below LARD's 1-per-request.
  const auto lard = play_checked(PolicyKind::kLard);
  const auto prord = play_checked(PolicyKind::kPrord);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(lard.dispatches) / static_cast<double>(lard.requests),
      1.0);
  EXPECT_LT(prord.dispatches, prord.requests);
}

}  // namespace
}  // namespace prord::core
