// End-to-end tests for the sharded front end (docs/SCALING.md): real
// loopback sockets, N distributor shards on one port, backend worker
// threads, multi-threaded load generation. The contract under test is
// conservation across shards — every issued request is parsed by exactly
// one shard and answered — plus the shard bookkeeping (per-shard
// snapshots, handoff accounting, gossip liveness), the one-shard case
// of the same assembly, and a /metrics and /slo surface that is the same
// at every shard count.

#include <gtest/gtest.h>

#include <string>

#include "net/live_cluster.h"
#include "trace/models.h"
#include "trace/workload.h"

namespace prord::net {
namespace {

trace::WorkloadSpec small_spec() {
  trace::WorkloadSpec spec = trace::synthetic_spec(/*seed=*/7);
  spec.gen.target_requests = 3000;
  return spec;
}

LiveConfig sharded_config(std::uint32_t shards, core::PolicyKind policy) {
  LiveConfig cfg;
  cfg.policy = policy;
  cfg.backends = 2;
  cfg.requests = 2000;
  cfg.concurrency = 8;
  cfg.workload = small_spec();
  cfg.replication_interval = sim::msec(200);
  cfg.shards = shards;
  cfg.gossip_interval_us = 1000;
  cfg.load_threads = 0;  // one generator thread per shard
  return cfg;
}

void expect_conserved(const LiveRunResult& r, std::uint32_t shards) {
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.shard_count, shards);
  EXPECT_TRUE(r.conserved());
  EXPECT_TRUE(r.shard_conserved());
  EXPECT_EQ(r.load.issued, 2000u);
  EXPECT_EQ(r.load.completed, 2000u);
  EXPECT_EQ(r.load.failed, 0u);
  ASSERT_EQ(r.shards.size(), shards);
  // The per-shard ledger adds up to the aggregate.
  std::uint64_t requests = 0, routed = 0;
  for (const auto& s : r.shards) {
    requests += s.requests;
    routed += s.routed;
  }
  EXPECT_EQ(requests, r.dist_requests);
  EXPECT_EQ(routed, r.routed);
  EXPECT_EQ(r.routed, r.dist_requests);
}

/// The value of an unlabeled series in a Prometheus scrape; -1 if absent.
double scrape_value(const std::string& scrape, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = ("\n" + scrape).find(key);
  if (at == std::string::npos) return -1.0;
  return std::stod(scrape.substr(at + key.size() - 1));
}

TEST(ShardedLive, OneShardMatchesRunLiveBehaviour) {
  // shards == 1 is the paper's single distributor: one shard snapshot, no
  // gossip, no handoff.
  const LiveRunResult r =
      run_live(sharded_config(1, core::PolicyKind::kPrord));
  expect_conserved(r, 1);
  EXPECT_EQ(r.shards[0].adopted, 0u);
  EXPECT_EQ(r.shards[0].gossip_publishes, 0u);
}

TEST(ShardedLive, OneShardLiveScrapeCountsEveryRoutedRequest) {
  // One shard never publishes to the gossip board, so its live scrape
  // must read the serving shard's own RoutingCore to be exact.
  LiveConfig cfg = sharded_config(1, core::PolicyKind::kPrord);
  cfg.load_threads = 1;
  const LiveRunResult r = run_live(cfg);
  expect_conserved(r, 1);
  EXPECT_EQ(scrape_value(r.metrics_scrape, "prord_live_routed_total"),
            static_cast<double>(r.load.issued));
  EXPECT_EQ(scrape_value(r.metrics_scrape, "prord_live_requests_total"),
            static_cast<double>(r.load.issued));
}

TEST(ShardedLive, LoadThreadSplitKeepsEveryConnection) {
  // 5 connections over 2 generator threads: the remainder connection must
  // not be dropped. The shards' accepts sum to the client connections
  // plus the two post-run scrapes (/metrics, /slo).
  LiveConfig cfg = sharded_config(2, core::PolicyKind::kWrr);
  cfg.reuseport = false;
  cfg.concurrency = 5;
  cfg.load_threads = 2;
  const LiveRunResult r = run_live(cfg);
  expect_conserved(r, 2);
  std::uint64_t accepts = 0;
  for (const auto& s : r.shards) accepts += s.accepts;
  EXPECT_EQ(accepts, 5u + 2u);
}

TEST(ShardedLive, TwoShardsHandoffModeSpreadsAcceptsConserves) {
  // Forced handoff mode (reuseport off) round-robins accepted fds, so
  // every shard must see traffic — the kernel's reuseport hash offers no
  // such guarantee, which is why this assertion lives here and not in
  // the reuseport test.
  LiveConfig cfg = sharded_config(2, core::PolicyKind::kWrr);
  cfg.reuseport = false;
  const LiveRunResult r = run_live(cfg);
  expect_conserved(r, 2);
  EXPECT_FALSE(r.reuseport_used);
  std::uint64_t adopted = 0;
  for (const auto& s : r.shards) {
    EXPECT_GT(s.requests, 0u) << "shard " << s.shard << " starved";
    adopted += s.adopted;
  }
  // Shard 0 accepted everything and handed roughly half across; shard 1
  // has no listener of its own in handoff mode.
  EXPECT_GT(adopted, 0u);
  EXPECT_EQ(r.shards[0].adopted, 0u);
  EXPECT_EQ(r.shards[1].accepts, 0u);
  EXPECT_EQ(r.shards[1].adopted, adopted);
}

TEST(ShardedLive, FourShardsReuseportConservesAndGossips) {
  const LiveRunResult r =
      run_live(sharded_config(4, core::PolicyKind::kPrord));
  expect_conserved(r, 4);
  // Gossip ran on every shard (liveness, not load values — those depend
  // on timing).
  std::uint64_t publishes = 0, merges = 0;
  for (const auto& s : r.shards) {
    publishes += s.gossip_publishes;
    merges += s.gossip_merges;
  }
  EXPECT_GT(publishes, 0u);
  EXPECT_GT(merges, 0u);
}

TEST(ShardedLive, ShardLabeledScrapeAndSlo) {
  LiveConfig cfg = sharded_config(2, core::PolicyKind::kLard);
  cfg.reuseport = false;  // deterministic: both shards serve traffic
  const LiveRunResult r = run_live(cfg);
  expect_conserved(r, 2);
  // /metrics carries shard-labeled counters plus the aggregate series
  // the 1-shard dashboards already use.
  EXPECT_NE(r.metrics_scrape.find("prord_scale_shards 2"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find(
                "prord_live_shard_requests_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find(
                "prord_live_shard_requests_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_live_requests_total"),
            std::string::npos);
  EXPECT_NE(r.metrics_scrape.find("prord_live_accepts_total"),
            std::string::npos);
  // ... and the SLO series, from the serving shard's own monitor.
  EXPECT_NE(r.metrics_scrape.find("prord_live_slo_burn_rate"),
            std::string::npos);
  // /slo aggregates across shards and names the serving shard.
  EXPECT_NE(r.slo_scrape.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(r.slo_scrape.find("\"per_shard\":["), std::string::npos);
  EXPECT_NE(r.slo_scrape.find("\"aggregate\""), std::string::npos);
}

TEST(ShardedLive, TracedSpansCarryShardIds) {
  LiveConfig cfg = sharded_config(2, core::PolicyKind::kWrr);
  cfg.reuseport = false;
  cfg.trace_sample_rate = 1.0;
  const LiveRunResult r = run_live(cfg);
  expect_conserved(r, 2);
  ASSERT_GT(r.spans.size(), 0u);
  bool saw_shard1 = false;
  for (const auto& span : r.spans) {
    EXPECT_LT(span.shard, 2u);
    if (span.shard == 1) saw_shard1 = true;
  }
  EXPECT_TRUE(saw_shard1) << "no span ever routed through shard 1";
  // The final registry decomposes every shard's spans per hop.
  bool hop_series = false;
  for (const auto& [key, metric] : r.registry.series())
    if (metric.name == "prord_live_hop_us") hop_series = true;
  EXPECT_TRUE(hop_series);
}

}  // namespace
}  // namespace prord::net
