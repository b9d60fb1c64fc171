// Equivalence fuzz for PRORD's periodic replication round.
//
// policies::replication_round ranks only the rows that can act (the push
// rows above T1/4, and the position of a registered file whose own rank
// fell into the NONE band). The reference round
// (tests/support/reference_replication_round.h) ranks the table's first
// max_directives rows, plans every one of them and walks the plan. Two
// identical clusters, one per round, take the same hit stream, the same
// cache churn, loads, crashes and restarts; after every round the replica
// registries, the pushes, the dispatcher's assignment lists, every
// back-end's cache contents and the placements each back-end installed
// (in order) must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "logmining/popularity.h"
#include "policies/prord.h"
#include "support/reference_replication_round.h"

namespace prord::policies {
namespace {

using cluster::ServerId;
using Placement = std::tuple<sim::SimTime, ServerId, trace::FileId, bool>;

/// One side of the comparison: a simulator, a cluster, a replica registry
/// and the log of placements its back-ends installed.
struct Side {
  Side(const cluster::ClusterParams& params, std::uint64_t demand,
       std::uint64_t pinned)
      : cluster(sim, params, demand, pinned) {
    for (ServerId s = 0; s < cluster.size(); ++s)
      cluster.backend(s).set_proactive_observer(
          [this, s](trace::FileId file, std::uint32_t, bool pin) {
            placements.emplace_back(sim.now(), s, file, pin);
          });
  }

  void advance_to(sim::SimTime t) {
    if (t > sim.now()) sim.schedule_at(t, [] {});
    sim.run(t);
  }

  /// Prord::on_server_down's registry purge.
  void purge(ServerId server) {
    for (auto it = replicated.begin(); it != replicated.end();) {
      std::erase(it->second, server);
      it = it->second.empty() ? replicated.erase(it) : std::next(it);
    }
  }

  sim::Simulator sim;
  cluster::Cluster cluster;
  HolderRegistry replicated;
  std::vector<Placement> placements;
};

void expect_same_state(Side& a, Side& b, std::size_t files) {
  EXPECT_EQ(a.replicated, b.replicated);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.sim.pending_events(), b.sim.pending_events());
  for (trace::FileId f = 0; f < files; ++f) {
    const auto da = a.cluster.dispatcher().peek(f);
    const auto db = b.cluster.dispatcher().peek(f);
    EXPECT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
        << "dispatcher list of file " << f;
    for (ServerId s = 0; s < a.cluster.size(); ++s) {
      EXPECT_EQ(a.cluster.backend(s).caches(f), b.cluster.backend(s).caches(f))
          << "server " << s << " file " << f;
      EXPECT_EQ(a.cluster.replica_pending(s, f),
                b.cluster.replica_pending(s, f))
          << "server " << s << " file " << f;
    }
  }
}

/// What the fuzz reached, so a change that stops reaching a case fails.
struct Coverage {
  std::size_t grown = 0;          ///< rounds that had to rank more rows
  /// Rounds stopped by the push cap ahead of a registered NONE-band file
  /// in the first max_directives rows, which therefore stays registered.
  std::size_t capped = 0;
  std::size_t retracted = 0;      ///< registry entries a round erased
  /// Registered NONE-band files below the first max_directives rows.
  std::size_t kept_below = 0;
  std::size_t tiny = 0;           ///< rounds whose table had a tiny rank
  std::size_t tracker_swaps = 0;  ///< set_model-style tracker renewals
  std::size_t restarts = 0;       ///< back-ends brought back up
};

/// Registered files whose own rank is in the NONE band (and at or above
/// the min_rank floor), split by whether they lie in the first `max_rows`
/// rows of the rank table.
struct NoneBand {
  std::size_t inside = 0;
  std::size_t below = 0;
};
NoneBand registered_in_none_band(const logmining::PopularityTracker& t,
                                 sim::SimTime now, const PrordOptions& o,
                                 std::size_t max_rows,
                                 const HolderRegistry& registry) {
  NoneBand n;
  const auto table = t.rank_table(now);
  if (table.empty() || !(table.front().rank > 0.0)) return n;
  const double t1 = table.front().rank * o.replication_plan.t1_fraction_of_top;
  for (std::size_t i = 0; i < table.size(); ++i)
    if (registry.contains(table[i].file) &&
        !(table[i].rank < o.replication_plan.min_rank) &&
        logmining::replica_tier(table[i].rank, t1) ==
            logmining::ReplicaTier::kNone)
      ++(i < max_rows ? n.inside : n.below);
  return n;
}

TEST(ReplicationRound, MatchesReferenceRoundOverRandomStreams) {
  std::mt19937_64 rng(20261020);
  Coverage seen;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const auto uniform = [&](double lo, double hi) {
      return lo + (hi - lo) * static_cast<double>(rng() % 1'000'000) / 1e6;
    };

    cluster::ClusterParams params;
    params.num_backends = 1 + static_cast<std::uint32_t>(rng() % 8);
    const std::uint64_t demand = 16'384 + rng() % 65'536;
    const std::uint64_t pinned = 8'192 + rng() % 65'536;
    Side a(params, demand, pinned), b(params, demand, pinned);

    const std::size_t files = 20 + rng() % 280;
    trace::FileTable table;
    for (std::size_t f = 0; f < files; ++f)
      table.intern("/f" + std::to_string(f) + ".html",
                   512 + static_cast<std::uint32_t>(rng() % 12'000));

    PrordOptions options;
    options.max_replication_pushes = rng() % 6 == 0 ? 0 : 1 + rng() % 24;
    auto& plan = options.replication_plan;
    switch (rng() % 3) {
      case 0: plan.max_directives = 0; break;  // 4 x the push cap
      case 1: plan.max_directives = 1 + rng() % 12; break;
      default: plan.max_directives = 16 + rng() % 200; break;
    }
    switch (rng() % 4) {
      case 0: plan.t1_fraction_of_top = uniform(0.2, 0.95); break;
      case 1: plan.t1_fraction_of_top = uniform(1.05, 3.0); break;
      default: break;  // the paper's pivot, 1.0
    }
    switch (rng() % 4) {
      case 0: plan.min_rank = 0.0; break;  // tiny and zero ranks plan too
      case 1: plan.min_rank = uniform(1.0, 12.0); break;
      default: break;  // 1.0
    }
    const std::size_t max_rows = plan.max_directives != 0
                                     ? plan.max_directives
                                     : options.max_replication_pushes * 4;
    const sim::SimTime halflife =
        trial % 5 == 0 ? 0  // cumulative counts: exact ties
                       : sim::sec(trial % 5 == 1 ? 2.0 : 30.0 + rng() % 600);
    auto tracker = std::make_unique<logmining::PopularityTracker>(halflife);

    // Some registry entries the rounds did not make (on_server_up's, or a
    // previous model's), among them files the tracker has never seen.
    for (int i = 0; i < 6; ++i) {
      const auto f = static_cast<trace::FileId>(rng() % (files + 4));
      const auto s = static_cast<ServerId>(rng() % params.num_backends);
      a.replicated[f].push_back(s);
      b.replicated[f] = a.replicated[f];
    }

    ReplicationRoundScratch scratch;
    test_support::ReferenceRoundScratch ref_scratch;
    std::size_t hot_offset = 0;
    bool flat = false;
    sim::SimTime now = 0;
    std::vector<bool> down(params.num_backends, false);
    for (int round = 0; round < 50; ++round) {
      SCOPED_TRACE(::testing::Message() << "round " << round);
      // Phases: the hot set moves (registered files cool off), and some
      // phases are flat, putting many rows above T1/4.
      if (round % 10 == 0) {
        hot_offset = rng() % files;
        flat = rng() % 3 == 0;
      }
      const int hits = static_cast<int>(rng() % 120);
      for (int i = 0; i < hits; ++i) {
        const std::size_t r = rng() % files;
        const std::size_t rank = flat ? r % 40 : r * r / files;
        const auto jitter = static_cast<sim::SimTime>(rng() % sim::sec(20.0));
        // Mostly before `now`; sometimes after it (keys stop ordering
        // ranks until `now` passes the stamp).
        const sim::SimTime at = rng() % 10 == 0
                                    ? now + jitter
                                    : std::max<sim::SimTime>(0, now - jitter);
        tracker->record_hit(
            static_cast<trace::FileId>((hot_offset + rank) % files), at);
      }
      now += rng() % 8 == 0 ? sim::sec(900.0)  // ranks decay to tiny
                            : static_cast<sim::SimTime>(rng() % sim::sec(60.0));

      // The same churn on both sides: loads, demand loads, dropped pins,
      // crashes (with Prord::on_server_down's purge) and restarts.
      for (ServerId s = 0; s < params.num_backends; ++s) {
        const auto load = static_cast<std::uint32_t>(rng() % 5);
        a.cluster.backend(s).set_external_load(load);
        b.cluster.backend(s).set_external_load(load);
      }
      for (int i = 0; i < 3; ++i) {
        const auto s = static_cast<ServerId>(rng() % params.num_backends);
        const auto f = static_cast<trace::FileId>(rng() % files);
        a.cluster.backend(s).prefetch(f, table.size_bytes(f), false);
        b.cluster.backend(s).prefetch(f, table.size_bytes(f), false);
        const auto g = static_cast<trace::FileId>(rng() % files);
        a.cluster.backend(s).drop_pinned(g);
        b.cluster.backend(s).drop_pinned(g);
      }
      if (rng() % 12 == 0) {
        const auto s = static_cast<ServerId>(rng() % params.num_backends);
        for (Side* side : {&a, &b}) {
          auto& be = side->cluster.backend(s);
          if (down[s]) {
            be.restart();
            be.set_marked_down(false);
          } else {
            be.crash();
            be.set_marked_down(true);
            side->purge(s);
          }
        }
        seen.restarts += down[s];
        down[s] = !down[s];
      }
      // Prord::set_model: a new model brings a tracker in a state no
      // scratch has seen (a copy, aged or reseeded).
      if (rng() % 15 == 0) {
        auto renewed = std::make_unique<logmining::PopularityTracker>(*tracker);
        if (rng() % 2) {
          renewed->age(uniform(0.1, 1.0));
        } else {
          std::vector<trace::Request> reqs(rng() % 30);
          for (auto& r : reqs)
            r.file = static_cast<trace::FileId>(rng() % files);
          renewed->seed(reqs);
        }
        tracker = std::move(renewed);
        ++seen.tracker_swaps;
      }

      a.advance_to(now);
      b.advance_to(now);
      const HolderRegistry prior = b.replicated;
      const std::size_t first_k = scratch.next_k;
      const std::size_t got = replication_round(*tracker, options, table,
                                                a.cluster, a.replicated,
                                                scratch);
      const std::size_t want = test_support::reference_replication_round(
          *tracker, options, table, b.cluster, b.replicated, ref_scratch);
      ASSERT_EQ(got, want);
      expect_same_state(a, b, files);
      if (::testing::Test::HasFailure()) return;

      seen.grown += scratch.rank.rows.size() > first_k;
      for (const auto& entry : prior)
        seen.retracted += !b.replicated.contains(entry.first);
      const NoneBand none = registered_in_none_band(*tracker, now, options,
                                                    max_rows, b.replicated);
      seen.kept_below += none.below;
      seen.capped += options.max_replication_pushes != 0 &&
                     got == options.max_replication_pushes && none.inside;
      const auto ranks = tracker->rank_table(now);
      seen.tiny += !ranks.empty() && ranks.back().rank < 0x1p-1000;
    }
  }
  // Every case the round distinguishes was reached.
  EXPECT_GT(seen.grown, 0u);
  EXPECT_GT(seen.capped, 0u);
  EXPECT_GT(seen.retracted, 0u);
  EXPECT_GT(seen.kept_below, 0u);
  EXPECT_GT(seen.tiny, 0u);
  EXPECT_GT(seen.tracker_swaps, 0u);
  EXPECT_GT(seen.restarts, 0u);
}

}  // namespace
}  // namespace prord::policies
