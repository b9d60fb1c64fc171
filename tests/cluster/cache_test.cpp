#include "cluster/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/reference_lru.h"
#include "util/rng.h"

namespace prord::cluster {
namespace {

TEST(Cache, MissThenHit) {
  MemoryCache c(10'000, 0);
  EXPECT_FALSE(c.lookup(1));
  c.insert_demand(1, 100);
  EXPECT_TRUE(c.lookup(1));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

TEST(Cache, LruEvictionOrder) {
  MemoryCache c(300, 0);
  c.insert_demand(1, 100);
  c.insert_demand(2, 100);
  c.insert_demand(3, 100);
  // Touch 1 so 2 becomes LRU.
  EXPECT_TRUE(c.lookup(1));
  c.insert_demand(4, 100);  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_TRUE(c.contains(4));
  EXPECT_EQ(c.stats().demand_evictions, 1u);
}

TEST(Cache, CapacityNeverExceeded) {
  MemoryCache c(1000, 500);
  util::Rng rng(4);
  for (trace::FileId f = 0; f < 500; ++f) {
    const auto bytes = 50 + rng.below(200);
    if (f % 3 == 0)
      c.insert_pinned(f, bytes);
    else
      c.insert_demand(f, bytes);
    EXPECT_LE(c.demand_bytes(), c.demand_capacity());
    EXPECT_LE(c.pinned_bytes(), c.pinned_capacity());
  }
}

TEST(Cache, OversizedFileNotCached) {
  MemoryCache c(1000, 0);
  c.insert_demand(1, 5000);
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.demand_bytes(), 0u);
}

TEST(Cache, PinnedRegionSeparateFromDemand) {
  MemoryCache c(200, 200);
  c.insert_demand(1, 200);
  EXPECT_TRUE(c.insert_pinned(2, 200));
  // Both fit: separate budgets.
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
  // A new pinned insert evicts pinned LRU, not demand.
  EXPECT_TRUE(c.insert_pinned(3, 200));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.stats().pinned_evictions, 1u);
}

TEST(Cache, PinnedRejectsWhenNoPinnedCapacity) {
  MemoryCache c(1000, 0);
  EXPECT_FALSE(c.insert_pinned(1, 100));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, PinnedUpgradeRemovesDemandCopy) {
  MemoryCache c(1000, 1000);
  c.insert_demand(1, 300);
  EXPECT_TRUE(c.insert_pinned(1, 300));
  EXPECT_TRUE(c.contains(1));
  EXPECT_EQ(c.demand_bytes(), 0u);
  EXPECT_EQ(c.pinned_bytes(), 300u);
  EXPECT_EQ(c.num_files(), 1u);
}

TEST(Cache, InsertDemandWhilePinnedIsNoop) {
  MemoryCache c(1000, 1000);
  c.insert_pinned(1, 300);
  c.insert_demand(1, 300);
  EXPECT_EQ(c.pinned_bytes(), 300u);
  EXPECT_EQ(c.demand_bytes(), 0u);
}

TEST(Cache, DoubleInsertDemandKeepsOneCopy) {
  MemoryCache c(1000, 0);
  c.insert_demand(1, 300);
  c.insert_demand(1, 300);
  EXPECT_EQ(c.demand_bytes(), 300u);
  EXPECT_EQ(c.num_files(), 1u);
}

TEST(Cache, EraseRemovesEitherRegion) {
  MemoryCache c(1000, 1000);
  c.insert_demand(1, 100);
  c.insert_pinned(2, 100);
  c.erase(1);
  c.erase(2);
  c.erase(3);  // non-resident: no-op
  EXPECT_EQ(c.num_files(), 0u);
  EXPECT_EQ(c.demand_bytes(), 0u);
  EXPECT_EQ(c.pinned_bytes(), 0u);
}

TEST(Cache, ErasePinnedLeavesDemandCopy) {
  MemoryCache c(1000, 1000);
  c.insert_demand(1, 100);
  c.erase_pinned(1);
  EXPECT_TRUE(c.contains(1));
  c.insert_pinned(2, 100);
  c.erase_pinned(2);
  EXPECT_FALSE(c.contains(2));
}

TEST(Cache, ClearDropsEverything) {
  MemoryCache c(1000, 1000);
  c.insert_demand(1, 100);
  c.insert_pinned(2, 100);
  c.clear();
  EXPECT_EQ(c.num_files(), 0u);
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(Cache, ResetStatsKeepsContents) {
  MemoryCache c(1000, 0);
  c.insert_demand(1, 100);
  c.lookup(1);
  c.lookup(99);
  c.reset_stats();
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_TRUE(c.contains(1));
}

TEST(Cache, RejectsZeroDemandCapacity) {
  EXPECT_THROW(MemoryCache(0, 100), std::invalid_argument);
}

TEST(Cache, LookupRefreshesPinnedLru) {
  MemoryCache c(100, 300);
  c.insert_pinned(1, 100);
  c.insert_pinned(2, 100);
  c.insert_pinned(3, 100);
  EXPECT_TRUE(c.lookup(1));         // refresh 1
  c.insert_pinned(4, 100);          // evicts 2 (LRU)
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(Cache, ByteAccountingInvariant) {
  MemoryCache c(5000, 2000);
  util::Rng rng(77);
  std::uint64_t expected_demand = 0, expected_pinned = 0;
  for (int op = 0; op < 3000; ++op) {
    const trace::FileId f = static_cast<trace::FileId>(rng.below(60));
    const std::uint32_t bytes = 100 + static_cast<std::uint32_t>(rng.below(400));
    switch (rng.below(4)) {
      case 0:
        c.insert_demand(f, bytes);
        break;
      case 1:
        c.insert_pinned(f, bytes);
        break;
      case 2:
        c.erase(f);
        break;
      default:
        c.lookup(f);
    }
    EXPECT_LE(c.demand_bytes(), c.demand_capacity());
    EXPECT_LE(c.pinned_bytes(), c.pinned_capacity());
  }
  (void)expected_demand;
  (void)expected_pinned;
}

// The index is a FileId-indexed table: ids far apart must behave like ids
// next to each other, and probes of ids it never held (kInvalidFile among
// them) must neither hit nor grow it. Ids above kMaxDenseFileId are never
// cached, like files larger than the cache.
class CacheSparseIds : public ::testing::TestWithParam<DemandEviction> {};

TEST_P(CacheSparseIds, FarApartIdsAndInvalidProbes) {
  MemoryCache c(1000, 400, GetParam());
  constexpr trace::FileId kFar = 1'000'000;
  EXPECT_FALSE(c.contains(trace::kInvalidFile));
  EXPECT_FALSE(c.lookup(trace::kInvalidFile));
  c.erase(trace::kInvalidFile);
  c.erase_pinned(kFar);
  EXPECT_EQ(c.num_files(), 0u);
  EXPECT_EQ(c.stats().misses, 1u);

  c.insert_demand(0, 300);
  c.insert_demand(kFar, 300);
  EXPECT_TRUE(c.lookup(0));
  EXPECT_TRUE(c.lookup(kFar));
  EXPECT_FALSE(c.contains(kFar - 1));
  EXPECT_FALSE(c.contains(kFar + 1));
  c.insert_demand(trace::kInvalidFile, 100);
  EXPECT_FALSE(c.insert_pinned(trace::kInvalidFile, 100));
  c.insert_demand(trace::kMaxDenseFileId + 1, 100);
  EXPECT_FALSE(c.contains(trace::kInvalidFile));
  EXPECT_FALSE(c.contains(trace::kMaxDenseFileId + 1));
  EXPECT_EQ(c.num_files(), 2u);
  EXPECT_EQ(c.demand_bytes(), 600u);

  // Upgrade the far file to pinned, then force one demand eviction.
  EXPECT_TRUE(c.insert_pinned(kFar, 300));
  EXPECT_EQ(c.demand_bytes(), 300u);
  EXPECT_EQ(c.pinned_bytes(), 300u);
  c.insert_demand(7, 400);
  c.insert_demand(8, 400);
  EXPECT_EQ(c.stats().demand_evictions, 1u);
  EXPECT_LE(c.demand_bytes(), c.demand_capacity());
  EXPECT_EQ(c.num_files(), 3u);
  EXPECT_TRUE(c.contains(kFar));
  EXPECT_TRUE(c.contains(8));

  c.erase(kFar);
  EXPECT_FALSE(c.contains(kFar));
  EXPECT_EQ(c.pinned_bytes(), 0u);
  EXPECT_EQ(c.num_files(), 2u);
  c.clear();
  EXPECT_EQ(c.num_files(), 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(8));
  c.insert_demand(kFar, 100);
  EXPECT_TRUE(c.lookup(kFar));
  EXPECT_EQ(c.num_files(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Eviction, CacheSparseIds,
                         ::testing::Values(DemandEviction::kLru,
                                           DemandEviction::kGdsf),
                         [](const auto& info) {
                           return info.param == DemandEviction::kLru
                                      ? std::string("Lru")
                                      : std::string("Gdsf");
                         });

TEST(Cache, InsertDemandReportsGdsfVictims) {
  MemoryCache c(3000, 0, DemandEviction::kGdsf);
  std::vector<trace::FileId> evicted;
  c.insert_demand(1, 2000, &evicted);  // big, lowest priority
  c.insert_demand(2, 500, &evicted);
  c.insert_demand(3, 500, &evicted);
  EXPECT_TRUE(evicted.empty());
  c.insert_demand(4, 1000, &evicted);
  EXPECT_EQ(evicted, std::vector<trace::FileId>{1});
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.stats().demand_evictions, evicted.size());
}

// A single LRU demand region must replace exactly like the byte-capacity
// LRU the live worker used to keep (tests/support/reference_lru.h): same
// residency, same bytes and the same victims in the same order after
// every lookup, miss-then-insert and refresh, over random capacities and
// sizes that include files larger than the cache. Each trial ends by
// inserting a file of the full capacity, which evicts every resident file
// oldest first, so the two LRU orders are compared in full as well.
TEST(Cache, DemandRegionMatchesReferenceLru) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t capacity = 1 + rng.below(trial % 2 ? 400 : 20'000);
    const auto files = static_cast<trace::FileId>(2 + rng.below(60));
    std::vector<std::uint64_t> size(files);
    for (std::uint64_t& bytes : size)
      bytes = 1 + rng.below(rng.bernoulli(0.1) ? 2 * capacity
                                               : capacity / 3 + 1);

    MemoryCache cache(capacity, 0);
    test_support::ReferenceLru ref(capacity);
    std::vector<trace::FileId> got, want;
    std::uint64_t victims = 0;
    for (int step = 0; step < 400; ++step) {
      const auto f = static_cast<trace::FileId>(rng.below(files));
      got.clear();
      want.clear();
      switch (rng.below(3)) {
        case 0:  // bare lookup: a hit refreshes, a miss changes nothing
          ASSERT_EQ(cache.lookup(f), ref.lookup(f));
          break;
        case 1:  // a request: miss, then insert
          ASSERT_EQ(cache.lookup(f), ref.lookup(f));
          if (!cache.contains(f)) {
            cache.insert_demand(f, size[f], &got);
            ref.insert(f, size[f], want);
          }
          break;
        default: {  // insert of a resident file refreshes it
          const std::vector<trace::FileId> resident = ref.order();
          const trace::FileId r =
              resident.empty() ? f : resident[rng.below(resident.size())];
          cache.insert_demand(r, size[r], &got);
          ref.insert(r, size[r], want);
        }
      }
      ASSERT_EQ(got, want) << "trial " << trial << " step " << step;
      victims += got.size();
      ASSERT_EQ(cache.demand_bytes(), ref.bytes());
      ASSERT_EQ(cache.num_files(), ref.size());
      for (trace::FileId g = 0; g < files; ++g)
        ASSERT_EQ(cache.contains(g), ref.contains(g))
            << "trial " << trial << " step " << step << " file " << g;
    }
    got.clear();
    want.clear();
    cache.insert_demand(files, capacity, &got);
    ref.insert(files, capacity, want);
    ASSERT_EQ(got, want) << "trial " << trial;
    victims += got.size();
    ASSERT_EQ(cache.num_files(), 1u);
    ASSERT_EQ(cache.stats().demand_evictions, victims);
  }
}

}  // namespace
}  // namespace prord::cluster
