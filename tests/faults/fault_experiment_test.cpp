// Fault injection through the full experiment pipeline: determinism of
// the exported artifacts under parallel execution, and the availability
// headline (replication shortens the post-rejoin re-warm).
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/obs_export.h"
#include "core/parallel_runner.h"

namespace prord::core {
namespace {

ExperimentConfig faulty_config(PolicyKind kind, std::uint64_t seed = 5) {
  ExperimentConfig config;
  config.workload = trace::synthetic_spec(seed);
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

TEST(FaultExperiment, ExportsAreByteIdenticalAcrossJobCounts) {
  std::vector<ExperimentCell> cells;
  for (const auto kind : {PolicyKind::kWrr, PolicyKind::kLard,
                          PolicyKind::kPrord}) {
    ExperimentCell cell;
    cell.label = policy_label(kind);
    cell.config = faulty_config(kind, /*seed=*/11);
    cell.config.workload.gen.target_requests = 1500;
    cell.config.workload.gen.duration_sec = 150;
    cell.config.faults.plan = "crash@40s:srv1,restart@80s:srv1";
    cell.config.obs.metrics = true;
    cell.config.obs.trace_sample_rate = 0.05;
    cells.push_back(std::move(cell));
  }
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions threaded;
  threaded.jobs = 4;
  const auto a = run_cells(cells, serial);
  const auto b = run_cells(cells, threaded);

  const auto prom = render_metrics(a, /*csv=*/false);
  EXPECT_EQ(prom, render_metrics(b, /*csv=*/false));
  EXPECT_EQ(render_metrics(a, /*csv=*/true), render_metrics(b, /*csv=*/true));
  EXPECT_EQ(render_trace_jsonl(a), render_trace_jsonl(b));

  // The fault surface made it into the export, with the plan's edges.
  EXPECT_NE(prom.find("prord_fault_crashes_total"), std::string::npos);
  EXPECT_NE(prom.find("prord_fault_down_detections_total"), std::string::npos);
  for (const auto& cell : a) {
    EXPECT_EQ(cell.primary().fault_stats.crashes, 1u) << cell.label;
    EXPECT_EQ(cell.primary().fault_stats.restarts, 1u) << cell.label;
  }
}

TEST(FaultExperiment, SampledModelRunsAreDeterministic) {
  ExperimentConfig config = faulty_config(PolicyKind::kLard, /*seed=*/3);
  config.faults.plan.clear();
  config.faults.use_model = true;
  config.faults.model.mtbf_sec = 80.0;
  config.faults.model.mttr_sec = 10.0;
  config.faults.model.seed = 17;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  EXPECT_GT(a.fault_stats.crashes, 0u);
  EXPECT_EQ(a.fault_stats.crashes, b.fault_stats.crashes);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.failed, b.metrics.failed);
  EXPECT_EQ(a.metrics.last_completion, b.metrics.last_completion);
  EXPECT_EQ(a.metrics.completed + a.metrics.failed, a.num_requests);
}

TEST(FaultExperiment, ReplicationShortensPostRejoinRewarm) {
  const auto with = run_experiment(faulty_config(PolicyKind::kPrord));
  const auto without =
      run_experiment(faulty_config(PolicyKind::kPrordNoReplication));

  // Algorithm 3's push round ran only for the replicating variant.
  EXPECT_GT(with.rewarm_pushes, 0u);
  EXPECT_EQ(without.rewarm_pushes, 0u);

  ASSERT_EQ(with.rewarms.size(), 1u);
  ASSERT_EQ(without.rewarms.size(), 1u);
  // The replication push refills the rejoined cache over the interconnect,
  // so PRORD must reach the re-warm target before the run ends — and
  // strictly sooner than the ablation's demand-miss refill through the
  // disk, if that finishes at all.
  ASSERT_TRUE(with.rewarms[0].completed());
  if (without.rewarms[0].completed()) {
    EXPECT_LT(with.rewarms[0].duration(), without.rewarms[0].duration());
  }

  // Conservation holds for both variants under the crash-and-rejoin.
  EXPECT_EQ(with.metrics.completed + with.metrics.failed, with.num_requests);
  EXPECT_EQ(without.metrics.completed + without.metrics.failed,
            without.num_requests);
}

}  // namespace
}  // namespace prord::core
