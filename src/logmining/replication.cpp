#include "logmining/replication.h"

#include <algorithm>
#include <stdexcept>

namespace prord::logmining {

std::uint32_t tier_replicas(ReplicaTier tier, std::uint32_t num_servers) {
  switch (tier) {
    case ReplicaTier::kAll:
      return num_servers;
    case ReplicaTier::kThreeQuarter:
      return std::max(1u, (num_servers * 3 + 3) / 4);
    case ReplicaTier::kHalf:
      return std::max(1u, (num_servers + 1) / 2);
    case ReplicaTier::kNoChange:
    case ReplicaTier::kNone:
      return 0;
  }
  return 0;
}

ReplicaTier replica_tier(double rank, double t1) {
  if (rank > 0.75 * t1) return ReplicaTier::kAll;
  if (rank > 0.5 * t1) return ReplicaTier::kThreeQuarter;
  if (rank > 0.25 * t1) return ReplicaTier::kHalf;
  if (rank > 0.125 * t1) return ReplicaTier::kNoChange;
  return ReplicaTier::kNone;
}

void plan_replication(std::span<const RankEntry> rank_table,
                      std::uint32_t num_servers,
                      const ReplicationPlanOptions& options,
                      std::vector<ReplicaDirective>& plan) {
  if (num_servers == 0)
    throw std::invalid_argument("plan_replication: num_servers == 0");
  plan.clear();
  if (rank_table.empty()) return;

  // The table arrives sorted (Algorithm 3 step (i)); trust but verify in
  // debug builds only — a full scan per round would dominate the planner.
  const double top = rank_table.front().rank;
  if (top <= 0.0) return;
  const double t1 = top * options.t1_fraction_of_top;

  for (const auto& entry : rank_table) {
    if (entry.rank < options.min_rank) break;  // table is sorted descending
    const ReplicaTier tier = replica_tier(entry.rank, t1);
    plan.push_back(ReplicaDirective{entry.file, tier,
                                    tier_replicas(tier, num_servers)});
    if (options.max_directives != 0 && plan.size() >= options.max_directives)
      break;
  }
}

std::vector<ReplicaDirective> plan_replication(
    std::span<const RankEntry> rank_table, std::uint32_t num_servers,
    const ReplicationPlanOptions& options) {
  std::vector<ReplicaDirective> plan;
  plan_replication(rank_table, num_servers, options, plan);
  return plan;
}

}  // namespace prord::logmining
