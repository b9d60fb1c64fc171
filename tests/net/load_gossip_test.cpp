// Deterministic unit tests for the gossip merge math and the seqlocked
// board (docs/SCALING.md). The merge must be a pure function of its
// inputs: idempotent, order-independent, and monotonically decaying with
// snapshot age — those three properties are what make "periodically
// recompute external load from whatever snapshots are readable" safe.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "net/load_gossip.h"

namespace prord::net {
namespace {

ShardLoadSnapshot make_snapshot(std::uint32_t shard, std::uint64_t version,
                                std::int64_t published_us,
                                std::vector<std::uint32_t> inflight) {
  ShardLoadSnapshot snap;
  snap.shard = shard;
  snap.backends = static_cast<std::uint32_t>(inflight.size());
  snap.version = version;
  snap.published_us = published_us;
  std::copy(inflight.begin(), inflight.end(), snap.inflight.begin());
  return snap;
}

TEST(GossipDecay, LinearAndClamped) {
  const std::int64_t horizon = 100'000;
  EXPECT_EQ(gossip_decay_num(0, horizon), horizon);          // fresh: full
  EXPECT_EQ(gossip_decay_num(50'000, horizon), 50'000);      // half-way
  EXPECT_EQ(gossip_decay_num(horizon, horizon), 0);          // at horizon
  EXPECT_EQ(gossip_decay_num(horizon + 1, horizon), 0);      // beyond
  EXPECT_EQ(gossip_decay_num(-5, horizon), horizon);         // clock race
}

TEST(GossipDecay, MonotoneInAge) {
  const std::int64_t horizon = 100'000;
  std::int64_t prev = gossip_decay_num(0, horizon);
  for (std::int64_t age = 1; age <= horizon + 10'000; age += 997) {
    const std::int64_t cur = gossip_decay_num(age, horizon);
    EXPECT_LE(cur, prev) << "decay increased at age " << age;
    prev = cur;
  }
  EXPECT_EQ(prev, 0);
}

TEST(GossipMerge, SumsPeersSkipsSelfAndUnpublished) {
  const GossipOptions opts;
  std::vector<ShardLoadSnapshot> snaps = {
      make_snapshot(0, 3, 1000, {10, 20}),  // self: must not count
      make_snapshot(1, 5, 1000, {4, 8}),
      make_snapshot(2, 0, 1000, {100, 100}),  // version 0: never published
      make_snapshot(3, 1, 1000, {1, 2}),
  };
  const auto external = merge_external_load(snaps, /*self_shard=*/0,
                                            /*backends=*/2,
                                            /*now_us=*/1000, opts);
  // Fresh snapshots carry full weight: 4+1 and 8+2.
  EXPECT_EQ(external[0], 5u);
  EXPECT_EQ(external[1], 10u);
}

TEST(GossipMerge, Idempotent) {
  const GossipOptions opts;
  std::vector<ShardLoadSnapshot> snaps = {
      make_snapshot(1, 2, 500, {7, 3, 9}),
      make_snapshot(2, 9, 2500, {1, 0, 4}),
  };
  const auto first =
      merge_external_load(snaps, 0, 3, /*now_us=*/40'000, opts);
  for (int i = 0; i < 10; ++i) {
    const auto again =
        merge_external_load(snaps, 0, 3, /*now_us=*/40'000, opts);
    EXPECT_EQ(again, first) << "merge changed on re-evaluation " << i;
  }
}

TEST(GossipMerge, OrderIndependent) {
  const GossipOptions opts;
  std::vector<ShardLoadSnapshot> snaps = {
      make_snapshot(1, 2, 100, {7, 3}),
      make_snapshot(2, 4, 30'000, {5, 11}),
      make_snapshot(3, 1, 60'000, {13, 2}),
      make_snapshot(4, 8, 99'000, {40, 40}),
  };
  const auto reference =
      merge_external_load(snaps, 0, 2, /*now_us=*/100'000, opts);
  std::sort(snaps.begin(), snaps.end(),
            [](const auto& a, const auto& b) { return a.shard < b.shard; });
  do {
    const auto merged =
        merge_external_load(snaps, 0, 2, /*now_us=*/100'000, opts);
    EXPECT_EQ(merged, reference);
  } while (std::next_permutation(
      snaps.begin(), snaps.end(),
      [](const auto& a, const auto& b) { return a.shard < b.shard; }));
}

TEST(GossipMerge, StaleSnapshotsDecayToZero) {
  GossipOptions opts;
  opts.staleness_us = 10'000;
  std::vector<ShardLoadSnapshot> snaps = {
      make_snapshot(1, 1, /*published_us=*/0, {100, 100}),
  };
  // Contribution shrinks monotonically as the snapshot ages...
  std::uint32_t prev = 0xFFFFFFFFu;
  for (std::int64_t now = 0; now <= opts.staleness_us; now += 1000) {
    const auto external = merge_external_load(snaps, 0, 2, now, opts);
    EXPECT_LE(external[0], prev);
    prev = external[0];
  }
  // ...and a snapshot past the horizon contributes exactly nothing.
  const auto gone =
      merge_external_load(snaps, 0, 2, opts.staleness_us + 1, opts);
  EXPECT_EQ(gone[0], 0u);
  EXPECT_EQ(gone[1], 0u);
}

TEST(GossipBoard, ReadReturnsFalseBeforeFirstPublish) {
  LoadGossipBoard board(4);
  ShardLoadSnapshot out;
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_FALSE(board.read(s, out)) << "shard " << s;
}

TEST(GossipBoard, PublishReadRoundTrip) {
  LoadGossipBoard board(2);
  const ShardLoadSnapshot snap =
      make_snapshot(1, 7, 123'456, {3, 1, 4, 1, 5});
  board.publish(1, snap);
  ShardLoadSnapshot out;
  ASSERT_TRUE(board.read(1, out));
  EXPECT_EQ(out.shard, 1u);
  EXPECT_EQ(out.backends, 5u);
  EXPECT_EQ(out.version, 7u);
  EXPECT_EQ(out.published_us, 123'456);
  EXPECT_EQ(out.inflight, snap.inflight);
  // The other slot is untouched.
  EXPECT_FALSE(board.read(0, out));
}

TEST(GossipBoard, LatestPublishWins) {
  LoadGossipBoard board(1);
  for (std::uint64_t v = 1; v <= 100; ++v)
    board.publish(0, make_snapshot(0, v, static_cast<std::int64_t>(v), {
                                       static_cast<std::uint32_t>(v)}));
  ShardLoadSnapshot out;
  ASSERT_TRUE(board.read(0, out));
  EXPECT_EQ(out.version, 100u);
  EXPECT_EQ(out.inflight[0], 100u);
}

TEST(GossipBoard, MergedExternalMatchesPureMerge) {
  LoadGossipBoard board(3);
  const auto s1 = make_snapshot(1, 2, 1000, {6, 0});
  const auto s2 = make_snapshot(2, 3, 1000, {0, 9});
  board.publish(1, s1);
  board.publish(2, s2);
  const GossipOptions opts;
  std::uint32_t torn = 99;
  const auto via_board = board.merged_external(0, 2, 1000, opts, &torn);
  EXPECT_EQ(torn, 0u);
  const std::vector<ShardLoadSnapshot> snaps = {s1, s2};
  const auto direct = merge_external_load(snaps, 0, 2, 1000, opts);
  EXPECT_EQ(via_board, direct);
  EXPECT_EQ(via_board[0], 6u);
  EXPECT_EQ(via_board[1], 9u);
}

TEST(GossipBoard, RoutingCountersSurviveRoundTrip) {
  LoadGossipBoard board(2);
  ShardLoadSnapshot snap = make_snapshot(0, 4, 50, {2});
  snap.routed = 1111;
  snap.dispatches = 700;
  snap.handoffs = 300;
  snap.forwards = 111;
  board.publish(0, snap);
  ShardLoadSnapshot out;
  ASSERT_TRUE(board.read(0, out));
  EXPECT_EQ(out.routed, 1111u);
  EXPECT_EQ(out.dispatches, 700u);
  EXPECT_EQ(out.handoffs, 300u);
  EXPECT_EQ(out.forwards, 111u);
}

}  // namespace
}  // namespace prord::net
