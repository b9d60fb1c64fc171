// Allocation budget of the live relay path. A counting global operator
// new (local to this test binary) charges every heap allocation to the
// thread that made it; run_live() drives the load generator on the
// calling thread, so (process - calling thread) is what the distributor
// and the workers allocated. In steady state the relay itself allocates
// nothing per request: what remains is routing (the belief model's policy
// work), worker cache misses and the run's fixed set-up and /metrics
// scrape, well under the budget asserted here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "net/live_cluster.h"
#include "trace/models.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
// Trivially constructible, so reading it inside operator new needs no
// dynamic TLS initialisation.
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// every allocation this binary makes must pair with the free() below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return operator new(n, al, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace prord::net {
namespace {

/// Server allocations per completed request above which the relay has
/// regressed (the owning codec measured ~17 on this shape).
constexpr double kMaxAllocsPerRequest = 3.0;

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

  const std::uint64_t process0 = g_allocs.load();
  const std::uint64_t caller0 = t_allocs;
  const LiveRunResult r = run_live(cfg);
  const std::uint64_t server =
      (g_allocs.load() - process0) - (t_allocs - caller0);

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
