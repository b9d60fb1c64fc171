#include "logmining/popularity.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "logmining/replication.h"

namespace prord::logmining {
namespace {

TEST(Popularity, SeedCountsRequests) {
  PopularityTracker t(0);  // no decay
  std::vector<trace::Request> reqs(5);
  for (auto& r : reqs) r.file = 1;
  reqs[4].file = 2;
  t.seed(reqs);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(t.rank(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.rank(99, 0), 0.0);
  EXPECT_EQ(t.num_files(), 2u);
}

TEST(Popularity, OnlineHitsAccumulate) {
  PopularityTracker t(0);
  t.record_hit(7, sim::sec(1.0));
  t.record_hit(7, sim::sec(2.0));
  EXPECT_DOUBLE_EQ(t.rank(7, sim::sec(2.0)), 2.0);
}

TEST(Popularity, DecayHalvesAtHalflife) {
  PopularityTracker t(sim::sec(10.0));
  t.record_hit(1, 0);
  EXPECT_NEAR(t.rank(1, sim::sec(10.0)), 0.5, 1e-9);
  EXPECT_NEAR(t.rank(1, sim::sec(20.0)), 0.25, 1e-9);
}

TEST(Popularity, RecentHitsOutweighOldOnes) {
  PopularityTracker t(sim::sec(10.0));
  for (int i = 0; i < 10; ++i) t.record_hit(1, 0);  // old burst
  t.record_hit(2, sim::sec(60.0));
  t.record_hit(2, sim::sec(60.0));
  EXPECT_GT(t.rank(2, sim::sec(60.0)), t.rank(1, sim::sec(60.0)));
}

TEST(Popularity, RankTableSortedDescending) {
  PopularityTracker t(0);
  for (int i = 0; i < 3; ++i) t.record_hit(10, 0);
  for (int i = 0; i < 5; ++i) t.record_hit(20, 0);
  t.record_hit(30, 0);
  const auto table = t.rank_table(0);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].file, 20u);
  EXPECT_EQ(table[1].file, 10u);
  EXPECT_EQ(table[2].file, 30u);
}

TEST(Popularity, IdsAboveDenseCeilingAreNotTracked) {
  PopularityTracker t(0);
  t.record_hit(trace::kInvalidFile, 0);
  t.record_hit(trace::kMaxDenseFileId + 1, 0);
  std::vector<trace::Request> reqs(2);  // file defaults to kInvalidFile
  t.seed(reqs);
  EXPECT_EQ(t.num_files(), 0u);
  EXPECT_DOUBLE_EQ(t.rank(trace::kInvalidFile, 0), 0.0);
  t.record_hit(1'000'000, 0);  // sparse but valid
  EXPECT_EQ(t.num_files(), 1u);
  EXPECT_DOUBLE_EQ(t.rank(1'000'000, 0), 1.0);
}

TEST(Popularity, RejectsNegativeHalflife) {
  EXPECT_THROW(PopularityTracker(-1), std::invalid_argument);
}

TEST(Popularity, AgeScalesEveryCounter) {
  PopularityTracker t(0);
  for (int i = 0; i < 4; ++i) t.record_hit(1, 0);
  t.record_hit(2, 0);
  t.age(0.5);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.rank(2, 0), 0.5);
}

TEST(Popularity, AgeDropsNegligibleEntries) {
  PopularityTracker t(0);
  t.record_hit(1, 0);
  for (int i = 0; i < 30; ++i) t.age(0.5);  // 2^-30 < the drop threshold
  EXPECT_EQ(t.num_files(), 0u);
  EXPECT_DOUBLE_EQ(t.rank(1, 0), 0.0);
}

TEST(Popularity, AgeRejectsOutOfRangeKeep) {
  PopularityTracker t(0);
  EXPECT_THROW(t.age(0.0), std::invalid_argument);
  EXPECT_THROW(t.age(1.5), std::invalid_argument);
}

// Regression: load() is all-or-nothing. A stream that parses part-way and
// then goes bad (truncation, garbage, bad trailer, absurd count) must
// leave the live counters exactly as they were — an earlier version
// cleared the table before parsing and bailed out mid-stream.
class PopularityCorruptLoad : public ::testing::Test {
 protected:
  PopularityCorruptLoad() : tracker_(sim::sec(60.0)) {
    tracker_.record_hit(1, 0);
    tracker_.record_hit(1, sim::sec(5.0));
    tracker_.record_hit(2, sim::sec(9.0));
    baseline_ = tracker_;  // after the hits: the state load() must keep
  }

  void expect_untouched() {
    EXPECT_EQ(tracker_.num_files(), 2u);
    EXPECT_DOUBLE_EQ(tracker_.rank(1, sim::sec(9.0)),
                     baseline_.rank(1, sim::sec(9.0)));
    EXPECT_DOUBLE_EQ(tracker_.rank(2, sim::sec(9.0)),
                     baseline_.rank(2, sim::sec(9.0)));
  }

  std::string saved() const {
    std::stringstream ss;
    tracker_.save(ss);
    return ss.str();
  }

  PopularityTracker tracker_;
  PopularityTracker baseline_{sim::sec(60.0)};
};

TEST_F(PopularityCorruptLoad, TruncatedMidEntries) {
  const std::string full = saved();
  std::stringstream truncated(full.substr(0, full.size() * 2 / 3));
  EXPECT_FALSE(tracker_.load(truncated));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, GarbageInsideEntries) {
  std::string bad = saved();
  bad.replace(bad.find('\n') + 1, 1, "x");  // first entry's file id
  std::stringstream ss(bad);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, MissingEndTrailer) {
  std::string bad = saved();
  bad.resize(bad.rfind("end"));
  std::stringstream ss(bad);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, AbsurdEntryCount) {
  std::stringstream ss("popularity 60000000 184467440737095516 1 1 0\n");
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, HalflifeMismatch) {
  PopularityTracker other(sim::sec(30.0));
  std::stringstream ss;
  other.record_hit(9, 0);
  other.save(ss);
  EXPECT_FALSE(tracker_.load(ss));
  expect_untouched();
}

TEST_F(PopularityCorruptLoad, FileIdAboveDenseCeiling) {
  // The dense table is sized from the largest id, so a stream naming an
  // id past the ceiling (kInvalidFile among them) is rejected before
  // anything is sized.
  for (const std::uint64_t id :
       {std::uint64_t{trace::kMaxDenseFileId} + 1,
        std::uint64_t{trace::kInvalidFile} - 1,
        std::uint64_t{trace::kInvalidFile}}) {
    std::stringstream ss("popularity 60000000 1\n" + std::to_string(id) +
                         " 4607182418800017408 0\nend\n");
    EXPECT_FALSE(tracker_.load(ss)) << id;
    expect_untouched();
  }
}

TEST_F(PopularityCorruptLoad, CountersNoTrackerHolds) {
  // NaN, a negative count, and a stamp before time 0.
  for (const char* row : {"5 9221120237041090560 0", "5 13830554455654793216 0",
                          "5 4607182418800017408 -1"}) {
    std::stringstream ss(std::string("popularity 60000000 1\n") + row +
                         "\nend\n");
    EXPECT_FALSE(tracker_.load(ss)) << row;
    expect_untouched();
  }
}

TEST_F(PopularityCorruptLoad, GoodStreamStillLoads) {
  PopularityTracker other(sim::sec(60.0));
  other.record_hit(9, sim::sec(2.0));
  std::stringstream ss;
  other.save(ss);
  ASSERT_TRUE(tracker_.load(ss));
  EXPECT_EQ(tracker_.num_files(), 1u);
  EXPECT_DOUBLE_EQ(tracker_.rank(9, sim::sec(2.0)),
                   other.rank(9, sim::sec(2.0)));
}

// ---------------------------------------------------------------------------
// Algorithm 3 planning.

std::vector<RankEntry> make_table(std::initializer_list<double> ranks) {
  std::vector<RankEntry> t;
  trace::FileId id = 0;
  for (double r : ranks) t.push_back(RankEntry{id++, r});
  return t;
}

TEST(Replication, TiersFollowAlgorithm3) {
  // T1 = 100 (top). Tiers: >75 all; >50 3/4; >25 1/2; >12.5 keep; else none.
  const auto plan =
      plan_replication(make_table({100, 80, 60, 30, 15, 5}), 8);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan[0].tier, ReplicaTier::kAll);
  EXPECT_EQ(plan[0].target_replicas, 8u);
  EXPECT_EQ(plan[1].tier, ReplicaTier::kAll);
  EXPECT_EQ(plan[2].tier, ReplicaTier::kThreeQuarter);
  EXPECT_EQ(plan[2].target_replicas, 6u);
  EXPECT_EQ(plan[3].tier, ReplicaTier::kHalf);
  EXPECT_EQ(plan[3].target_replicas, 4u);
  EXPECT_EQ(plan[4].tier, ReplicaTier::kNoChange);
  EXPECT_EQ(plan[5].tier, ReplicaTier::kNone);
}

TEST(Replication, TierReplicasRoundsUp) {
  EXPECT_EQ(tier_replicas(ReplicaTier::kAll, 6), 6u);
  EXPECT_EQ(tier_replicas(ReplicaTier::kThreeQuarter, 6), 5u);  // ceil(4.5)
  EXPECT_EQ(tier_replicas(ReplicaTier::kHalf, 7), 4u);          // ceil(3.5)
  EXPECT_EQ(tier_replicas(ReplicaTier::kNone, 8), 0u);
  EXPECT_GE(tier_replicas(ReplicaTier::kHalf, 1), 1u);
}

TEST(Replication, MinRankCutsTail) {
  ReplicationPlanOptions opt;
  opt.min_rank = 10.0;
  const auto plan = plan_replication(make_table({100, 50, 5}), 4, opt);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(Replication, MaxDirectivesCap) {
  ReplicationPlanOptions opt;
  opt.min_rank = 0.5;
  opt.max_directives = 2;
  const auto plan = plan_replication(make_table({10, 9, 8, 7}), 4, opt);
  EXPECT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].file, 0u);  // hottest first
}

TEST(Replication, EmptyTableEmptyPlan) {
  EXPECT_TRUE(plan_replication({}, 4).empty());
}

TEST(Replication, AllZeroRanksEmptyPlan) {
  EXPECT_TRUE(plan_replication(make_table({0, 0}), 4).empty());
}

TEST(Replication, RejectsZeroServers) {
  EXPECT_THROW(plan_replication(make_table({1}), 0), std::invalid_argument);
}

TEST(Replication, ReplicaTierFallsWithRank) {
  // The replication round reads the push rows as a prefix of the table and
  // the NONE rows as a suffix; that needs monotone tiers at any pivot.
  const double ranks[] = {0.0, 1e-300, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.9,
                          8.0, 100.0};
  for (const double t1 : {8.0, 1.0, 0.0, -4.0,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()})
    for (std::size_t i = 1; i < std::size(ranks); ++i)
      EXPECT_LE(replica_tier(ranks[i], t1), replica_tier(ranks[i - 1], t1))
          << "t1 " << t1 << " rank " << ranks[i];
  EXPECT_EQ(replica_tier(7.0, 8.0), ReplicaTier::kAll);
  EXPECT_EQ(replica_tier(6.0, 8.0), ReplicaTier::kThreeQuarter);
  EXPECT_EQ(replica_tier(4.0, 8.0), ReplicaTier::kHalf);
  EXPECT_EQ(replica_tier(2.0, 8.0), ReplicaTier::kNoChange);
  EXPECT_EQ(replica_tier(1.0, 8.0), ReplicaTier::kNone);
}

TEST(Replication, MonotoneTiersDownTheTable) {
  const auto plan = plan_replication(
      make_table({100, 90, 70, 60, 40, 30, 20, 14, 10, 1}), 8);
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_GE(static_cast<int>(plan[i].tier),
              static_cast<int>(plan[i - 1].tier));
}

// ---------------------------------------------------------------------------
// top_rank_table must return byte-for-byte the prefix of the full sort —
// the replication planner's byte-identity across the fast and legacy
// selection paths rests on this.
// ---------------------------------------------------------------------------

/// Checks one top_rank_table round into `got`, which carries whatever the
/// caller left in it (the previous round's rows, or anything else).
void expect_round_identical(const PopularityTracker& t, sim::SimTime now,
                            std::size_t k, std::vector<RankEntry>& got) {
  auto expected = t.rank_table(now);
  if (expected.size() > k) expected.resize(k);
  t.top_rank_table(now, k, got);
  ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].file, expected[i].file) << "k=" << k << " row " << i;
    // Bitwise equality, not tolerance: both paths must evaluate the same
    // decayed() expression on the same entry.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].rank),
              std::bit_cast<std::uint64_t>(expected[i].rank))
        << "k=" << k << " row " << i;
  }
}

void expect_prefix_identical(const PopularityTracker& t, sim::SimTime now,
                             std::size_t k) {
  std::vector<RankEntry> got;
  expect_round_identical(t, now, k, got);
}

TEST(Popularity, TopRankTableMatchesFullSortPrefix) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 8; ++round) {
    PopularityTracker t(round % 2 ? sim::sec(300.0) : 0);
    const int files = 1 + static_cast<int>(rng() % 400);
    const int hits = 1 + static_cast<int>(rng() % 4000);
    for (int i = 0; i < hits; ++i)
      t.record_hit(static_cast<trace::FileId>(rng() % files),
                   static_cast<sim::SimTime>(rng() % sim::sec(3600.0)));
    const auto now = sim::sec(3600.0);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{7}, std::size_t{64}, std::size_t{256},
                          std::size_t{100000}})
      expect_prefix_identical(t, now, k);
  }
}

TEST(Popularity, TopRankTableTieBreaksByFileId) {
  PopularityTracker t(0);  // no decay: exact rank ties across files
  for (trace::FileId f = 0; f < 50; ++f)
    for (int i = 0; i < 3; ++i) t.record_hit(f, 0);
  for (std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{50}})
    expect_prefix_identical(t, sim::sec(10.0), k);
}

// Rounds as the replication planner runs them, through both entry points:
// a plain buffer carried from round to round (its rows bar the next scan)
// and a TopRankScratch (whose rounds re-rank only last round's rows and
// the files hit since). Hits land between rounds, and `now` advances,
// repeats or steps back before the latest stamps. Mixed in: no decay,
// decay fast enough to drive ranks subnormal, bursts of hits that overrun
// the hit journal, age(), seed(), save/load round trips into a copy, a
// changing k, and plain buffers holding duplicates or ids from elsewhere.
// Every round must bit-compare to the full sort's prefix.
TEST(Popularity, TopRankTableFuzzAcrossRounds) {
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 24; ++trial) {
    const sim::SimTime halflife =
        trial % 4 == 0 ? 0
                       : sim::sec(trial % 4 == 1 ? 1.0 : 1.0 + rng() % 900);
    PopularityTracker t(halflife);
    const auto files = 1 + rng() % 300;
    const auto file = [&] {
      // Skewed, so a hot head and a long cold tail both exist.
      const auto r = rng() % files;
      return static_cast<trace::FileId>(r * r / files);
    };
    std::vector<RankEntry> got;
    TopRankScratch scratch;
    sim::SimTime now = 0, latest_hit = 0;
    for (int round = 0; round < 60; ++round) {
      // Every 20th round overruns the hit journal.
      const int hits =
          round % 20 == 19
              ? static_cast<int>(PopularityTracker::kHitJournal) + 50
              : static_cast<int>(rng() % 200);
      for (int i = 0; i < hits; ++i) {
        // Mostly at or just before `now`; sometimes after it.
        const auto jitter = static_cast<sim::SimTime>(rng() % sim::sec(30.0));
        const sim::SimTime at = rng() % 8 == 0
                                    ? now + jitter
                                    : std::max<sim::SimTime>(0, now - jitter);
        t.record_hit(file(), at);
        latest_hit = std::max(latest_hit, at);
      }
      switch (rng() % 10) {
        case 0:
          break;  // repeated now
        case 1:
          now = std::max<sim::SimTime>(
              0, now - static_cast<sim::SimTime>(rng() % sim::sec(90.0)));
          break;
        case 2:
          // A long quiet spell: with short halflives the ranks of files
          // not hit since turn subnormal or zero.
          now += sim::sec(1500.0);
          break;
        default:
          now += static_cast<sim::SimTime>(rng() % sim::sec(120.0));
      }
      switch (rng() % 24) {
        case 0:
          t.age(0.05 + 0.95 * static_cast<double>(rng() % 1000) / 1000.0);
          break;
        case 1: {
          std::vector<trace::Request> reqs(rng() % 50);
          for (auto& r : reqs) r.file = file();
          t.seed(reqs);
          break;
        }
        case 2: {
          std::stringstream ss;
          t.save(ss);
          PopularityTracker loaded(halflife);
          ASSERT_TRUE(loaded.load(ss));
          t = loaded;
          break;
        }
        case 3: {
          // Plain buffers that are no previous selection: the hottest
          // file repeated (a bar too high for k files to reach), and ids
          // the tracker never saw.
          const auto table = t.rank_table(now);
          got.assign(300, RankEntry{table.empty() ? 0 : table.front().file,
                                    1.0});
          break;
        }
        case 4:
          got.assign(40, RankEntry{trace::kInvalidFile, 5.0});
          break;
        default:
          break;
      }
      const std::size_t ks[] = {1, 2, 7, 32, 256, files, files + 5};
      const std::size_t k = round % 5 == 4 ? ks[rng() % 7] : 32;
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " round "
                                        << round << " now " << now);
      expect_round_identical(t, now, k, got);
      auto expected = t.rank_table(now);
      if (expected.size() > k) expected.resize(k);
      t.top_rank_table(now, k, scratch);
      ASSERT_EQ(scratch.rows.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(scratch.rows[i].file, expected[i].file) << "row " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scratch.rows[i].rank),
                  std::bit_cast<std::uint64_t>(expected[i].rank))
            << "row " << i;
      }
      // The bound the next scratch round relies on: no file outside the
      // rows has a key (log2 rank + now/halflife, once `now` is past every
      // stamp) above runner_up.
      if (now < latest_hit || scratch.rows.size() < k) continue;
      const double scale =
          halflife ? static_cast<double>(now) / static_cast<double>(halflife)
                   : 0.0;
      std::vector<bool> selected(files + 1);
      for (const RankEntry& row : scratch.rows) selected[row.file] = true;
      for (const RankEntry& row : expected.size() < k ? expected
                                                      : t.rank_table(now)) {
        if (selected[row.file] || row.rank < 0x1p-900) continue;
        EXPECT_LE(std::log2(row.rank) + scale,
                  scratch.runner_up +
                      1e-9 * (4 + std::abs(scratch.runner_up) + scale))
            << "file " << row.file;
      }
    }
  }
}

// in_top(file, now, n) is "fewer than n files rank before it in
// rank_table(now)": checked for every file and a spread of n, with exact
// ties (no decay), ranks decayed to tiny or zero, queries before the
// latest stamps, and ids the tracker never saw.
TEST(Popularity, InTopMatchesRankTablePosition) {
  std::mt19937_64 rng(20261021);
  for (int trial = 0; trial < 16; ++trial) {
    const sim::SimTime halflife =
        trial % 4 == 0 ? 0
                       : sim::sec(trial % 4 == 1 ? 1.0 : 1.0 + rng() % 900);
    PopularityTracker t(halflife);
    const auto files = 1 + rng() % 200;
    const auto hits = rng() % 3000;
    for (std::uint64_t i = 0; i < hits; ++i) {
      const auto r = rng() % files;
      t.record_hit(static_cast<trace::FileId>(r * r / files),
                   static_cast<sim::SimTime>(rng() % sim::sec(600.0)));
    }
    for (const sim::SimTime now :
         {sim::sec(300.0), sim::sec(600.0), sim::sec(2400.0)}) {
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " now "
                                        << now);
      const auto table = t.rank_table(now);
      std::vector<std::size_t> position(files + 3, SIZE_MAX);
      for (std::size_t i = 0; i < table.size(); ++i)
        position[table[i].file] = i;
      for (trace::FileId f = 0; f < position.size(); ++f)
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{5},
              std::size_t{17}, table.size() / 2, table.size(),
              std::size_t{1000}})
          EXPECT_EQ(t.in_top(f, now, n), position[f] < n)
              << "file " << f << " n " << n;
      EXPECT_FALSE(t.in_top(trace::kInvalidFile, now, 1000));
    }
  }
}

}  // namespace
}  // namespace prord::logmining
