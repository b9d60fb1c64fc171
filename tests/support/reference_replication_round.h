// Reference model for the replication-round equivalence fuzz.
//
// PRORD's original periodic Algorithm 3 round: rank the table's first
// max_directives rows, plan a directive for every one of them with
// plan_replication, then walk the plan — push replicas for the ALL, 3/4
// and HALF tiers, skip NO_CHANGE, and erase every NONE row's file from the
// replica registry (an absent key included) — until the push cap. It does
// work for every planned row, so it is slow, but it is Algorithm 3 as the
// paper states it; tests/policies/replication_round_test.cpp drives
// policies::replication_round against it round for round.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "logmining/popularity.h"
#include "logmining/replication.h"
#include "policies/prord.h"

namespace prord::test_support {

/// The buffers the reference round reuses between rounds.
struct ReferenceRoundScratch {
  std::vector<logmining::RankEntry> rows;
  std::vector<logmining::ReplicaDirective> plan;
};

/// Same arguments and effects as policies::replication_round; returns the
/// replicas pushed.
inline std::size_t reference_replication_round(
    const logmining::PopularityTracker& popularity,
    const policies::PrordOptions& options, const trace::FileTable& files,
    cluster::Cluster& cluster, policies::HolderRegistry& replicated,
    ReferenceRoundScratch& scratch) {
  using cluster::ServerId;
  const auto now = cluster.sim().now();
  auto plan_opts = options.replication_plan;
  if (plan_opts.max_directives == 0)
    plan_opts.max_directives = options.max_replication_pushes * 4;
  popularity.top_rank_table(now, plan_opts.max_directives, scratch.rows);
  logmining::plan_replication(scratch.rows, cluster.size(), plan_opts,
                              scratch.plan);

  const auto register_holder = [&replicated](trace::FileId file,
                                             ServerId server) {
    auto& holders = replicated[file];
    if (std::find(holders.begin(), holders.end(), server) == holders.end())
      holders.push_back(server);
  };

  std::size_t pushes = 0;
  for (const auto& directive : scratch.plan) {
    if (pushes >= options.max_replication_pushes) break;
    const trace::FileId file = directive.file;
    const std::uint32_t bytes = files.size_bytes(file);

    if (directive.tier == logmining::ReplicaTier::kNone) {
      replicated.erase(file);
      continue;
    }
    if (directive.tier == logmining::ReplicaTier::kNoChange) continue;

    std::uint32_t have = 0;
    for (ServerId s = 0; s < cluster.size(); ++s)
      have += cluster.backend(s).caches(file);
    if (have >= directive.target_replicas) continue;
    auto& holders = replicated[file];
    while (have < directive.target_replicas &&
           pushes < options.max_replication_pushes) {
      ServerId best = cluster::kNoServer;
      for (ServerId s = 0; s < cluster.size(); ++s) {
        if (!cluster.backend(s).available()) continue;
        if (cluster.backend(s).caches(file)) continue;
        if (std::find(holders.begin(), holders.end(), s) != holders.end())
          continue;
        if (best == cluster::kNoServer ||
            cluster.backend(s).load() < cluster.backend(best).load())
          best = s;
      }
      if (best == cluster::kNoServer) break;
      if (!cluster.push_replica(best, file, bytes)) break;  // NIC saturated
      cluster.dispatcher().assign(file, best);
      register_holder(file, best);
      ++pushes;
      ++have;
    }
  }
  return pushes;
}

}  // namespace prord::test_support
