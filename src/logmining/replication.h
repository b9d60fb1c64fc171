// Replication planning — Algorithm 3.
//
// Every t seconds the rank table is sorted and each file's replica count is
// set by comparing its rank against fractions of a pivot T1:
//
//     rank >  3/4*T1          -> replicate on ALL N servers
//     rank in (1/2, 3/4]*T1   -> ceil(3N/4) servers
//     rank in (1/4, 1/2]*T1   -> ceil(N/2) servers
//     rank in (1/8, 1/4]*T1   -> NO_CHANGE (keep current replicas)
//     rank <= 1/8*T1          -> NONE (single demand-loaded copy only)
//
// The paper leaves the (3/4*T1, T1] band unspecified ("> T1" vs "between
// 1/2 and 3/4"); we fold it into the ALL tier, which keeps the mapping
// monotone. T1 defaults to the rank of the table's top entry, making the
// tiers relative to the current hottest object — this matches the text's
// use of T1 as the full-replication bar.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "logmining/popularity.h"

namespace prord::logmining {

enum class ReplicaTier : std::uint8_t {
  kAll,       ///< every back-end holds it
  kThreeQuarter,
  kHalf,
  kNoChange,  ///< leave whatever replication exists
  kNone,      ///< no proactive replicas
};

struct ReplicaDirective {
  trace::FileId file = trace::kInvalidFile;
  ReplicaTier tier = ReplicaTier::kNone;
  /// Concrete replica target for `num_servers`; 0 for kNoChange/kNone
  /// (callers interpret those tiers without a count).
  std::uint32_t target_replicas = 0;
};

struct ReplicationPlanOptions {
  /// Pivot T1 as a fraction of the top rank (1.0 = top entry's rank).
  double t1_fraction_of_top = 1.0;
  /// Ignore files with rank below this absolute floor (noise suppression).
  double min_rank = 1.0;
  /// Cap on directives per planning round (hottest first); 0 = unlimited.
  std::size_t max_directives = 0;
};

/// Algorithm 3 steps (i)-(ii): replaces `plan` with the replica
/// directives for the current rank table, hottest-first. `plan` keeps its
/// capacity, so a caller that reuses it plans every round without
/// allocating.
void plan_replication(std::span<const RankEntry> rank_table,
                      std::uint32_t num_servers,
                      const ReplicationPlanOptions& options,
                      std::vector<ReplicaDirective>& plan);

/// The same plan in a fresh vector.
std::vector<ReplicaDirective> plan_replication(
    std::span<const RankEntry> rank_table, std::uint32_t num_servers,
    const ReplicationPlanOptions& options = {});

/// Maps a tier to a concrete replica count for an N-server cluster.
std::uint32_t tier_replicas(ReplicaTier tier, std::uint32_t num_servers);

/// The tier of a file ranked `rank` against pivot `t1` (the table above).
/// Monotone: a higher rank never gets a lower tier, so in a table sorted
/// by rank the push tiers (ALL, 3/4, HALF) form a prefix and NONE a
/// suffix.
ReplicaTier replica_tier(double rank, double t1);

}  // namespace prord::logmining
