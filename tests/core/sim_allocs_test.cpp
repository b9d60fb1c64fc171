// Allocation budget of the simulator on the pinned Fig. 8 cell: PRORD on
// the cs-dept trace (seed 2006) at 30% memory with metrics on, as
// bench_perf's fig8_memory_sweep and cell 0 of perfbench's sim_fig8 at
// seed 2006 run it. The counting global operator new
// (support/counting_new.cpp, linked into this binary only) sees every
// allocation run_experiment makes: trace generation, mining, the warm-up
// play of the training trace and the measured run. Divided by the
// requests the simulator plays (training plus evaluation trace), that is
// perfbench's sim_fig8 allocs_per_req for this one cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "logmining/popularity.h"
#include "support/counting_new.h"
#include "trace/models.h"
#include "trace/site_model.h"
#include "trace/workload.h"

namespace prord::core {
namespace {

/// Allocations per simulated request above which the replication round,
/// the cache index, predict() or the workload player has regressed. The
/// cell measured 5.13 before the replication round moved onto dense
/// FileId tables, predict() stopped building candidate vectors and the
/// player's kickoff map stopped allocating a node per request; 3.07 after.
constexpr double kMaxAllocsPerRequest = 3.2;

ExperimentConfig fig8_cell() {
  ExperimentConfig config;
  config.workload = trace::cs_dept_spec();
  config.policy = PolicyKind::kPrord;
  config.memory_fraction = 0.30;
  config.obs.metrics = true;
  return config;
}

/// Requests the experiment plays: its training trace (warm-up) and its
/// evaluation trace, generated the way run_experiment generates them.
std::size_t simulated_requests(const ExperimentConfig& config) {
  const trace::SiteModel site = trace::build_site(config.workload.site);
  auto train_gen = config.workload.gen;
  train_gen.seed += config.train_seed_offset;
  return trace::build_workload(
             trace::generate_trace(site, config.workload.gen).records)
             .requests.size() +
         trace::build_workload(trace::generate_trace(site, train_gen).records)
             .requests.size();
}

TEST(SimAllocs, PinnedFig8CellStaysWithinBudget) {
  const ExperimentConfig config = fig8_cell();
  ASSERT_TRUE(config.warmup);
  const std::size_t requests = simulated_requests(config);
  // The first run also pays one-time static initialisation.
  (void)run_experiment(config);

  const std::uint64_t before = test_support::process_allocs();
  const ExperimentResult r = run_experiment(config);
  const std::uint64_t allocs = test_support::process_allocs() - before;

  EXPECT_EQ(r.metrics.completed + r.metrics.failed, r.num_requests);
  const double per_request =
      static_cast<double>(allocs) / static_cast<double>(requests);
  std::printf("allocations: %llu over %zu simulated requests (%.2f/request)\n",
              static_cast<unsigned long long>(allocs), requests, per_request);
  EXPECT_LE(per_request, kMaxAllocsPerRequest);
}

TEST(SimAllocs, HugeFileIdInPopularityStreamIsRejectedCheaply) {
  // A dense FileId table must never be sized from an id a stream claims:
  // this one would need 2^32 slots. The rejection costs the parse alone.
  logmining::PopularityTracker tracker(sim::sec(60.0));
  tracker.record_hit(3, 0);
  std::stringstream ss("popularity 60000000 1\n4294967294 " +
                       std::to_string(0x3ff0000000000000ULL) + " 0\nend\n");
  const std::uint64_t before = test_support::process_alloc_bytes();
  EXPECT_FALSE(tracker.load(ss));
  EXPECT_LT(test_support::process_alloc_bytes() - before, 64u * 1024);
  EXPECT_EQ(tracker.num_files(), 1u);
}

}  // namespace
}  // namespace prord::core
