// Allocation budget of the live relay path. A counting global operator
// new (tests/support/counting_new.cpp, linked into this binary only)
// charges every heap allocation to the thread that made it; run_live()
// drives the load generator on the calling thread, so (process - calling
// thread) is what the distributor and the workers allocated. In steady state the relay itself allocates
// nothing per request: what remains is routing (the belief model's policy
// work), worker cache misses and the run's fixed set-up and /metrics
// scrape, well under the budget asserted here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "net/live_cluster.h"
#include "support/counting_new.h"
#include "trace/models.h"

namespace prord::net {
namespace {

/// Server allocations per completed request above which the relay has
/// regressed (the owning codec measured ~17 on this shape).
constexpr double kMaxAllocsPerRequest = 2.0;

TEST(LiveAllocs, ClosedLoopRelayStaysWithinBudget) {
  // The perfbench live_closed shape at a smaller request count: PRORD over
  // 4 workers, one front-end shard, prefetch off, 4 closed-loop
  // connections at depth 1.
  LiveConfig cfg;
  cfg.policy = core::PolicyKind::kPrord;
  cfg.backends = 4;
  cfg.shards = 1;
  cfg.prefetch = false;
  cfg.concurrency = 4;
  cfg.pipeline_depth = 1;
  cfg.memory_fraction = 0.30;
  cfg.workload = trace::synthetic_spec(/*seed=*/3);
  cfg.workload.gen.target_requests = 6000;
  cfg.requests = 3000;

  const std::uint64_t process0 = test_support::process_allocs();
  const std::uint64_t caller0 = test_support::thread_allocs();
  const LiveRunResult r = run_live(cfg);
  const std::uint64_t server = (test_support::process_allocs() - process0) -
                               (test_support::thread_allocs() - caller0);

  ASSERT_TRUE(r.started);
  EXPECT_TRUE(r.conserved());
  EXPECT_EQ(r.load.issued, cfg.requests);
  ASSERT_EQ(r.load.completed, cfg.requests);
  EXPECT_EQ(r.load.failed, 0u);
  EXPECT_EQ(r.load.status_error, 0u);
  EXPECT_EQ(r.dist_parse_errors, 0u);

  const double per_request =
      static_cast<double>(server) / static_cast<double>(r.load.completed);
  std::printf("server allocations: %llu over %llu requests (%.2f/request)\n",
              static_cast<unsigned long long>(server),
              static_cast<unsigned long long>(r.load.completed),
              per_request);
  EXPECT_LE(per_request, kMaxAllocsPerRequest);
}

}  // namespace
}  // namespace prord::net
