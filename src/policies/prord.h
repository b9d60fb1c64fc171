// PRORD: PROactive Request Distribution (the paper's contribution).
//
// Front-end flow (Fig. 4):
//   1. Embedded object of the connection's previous page?  -> same back-end,
//      no dispatcher contact, no handoff  ("bundle" forwarding).
//   2. Known to be prefetched / proactively replicated?    -> route to a
//      holder from the front-end's own prefetch registry, no dispatcher.
//   3. Otherwise LARD-style dispatcher assignment (counted dispatch).
//
// Back-end proactivity (Section 4.1), triggered from on_routed():
//   - the connection's navigation history feeds the mined predictor
//     (Algorithms 1 & 2); a prediction whose confidence clears the
//     threshold is prefetched into the serving back-end's pinned memory,
//     together with the predicted page's bundle;
//   - the requested main page's own bundle is prefetched so the embedded
//     objects that follow hit memory;
//   - every t seconds Algorithm 3 replicates hot files (by decayed rank)
//     across back-ends' pinned regions.
//
// Each mechanism has a toggle so Fig. 9's single-enhancement ablations
// (LARD-bundle / LARD-distribution / LARD-prefetch-nav) are just configs.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "logmining/mining_model.h"
#include "logmining/replication.h"
#include "policies/adaptation_hooks.h"
#include "policies/lard.h"
#include "simcore/simulator.h"

namespace prord::policies {

struct PrordOptions {
  bool bundle_forwarding = true;   ///< Fig. 9 "LARD-bundle"
  bool replication = true;         ///< Fig. 9 "LARD-distribution"
  bool prefetch = true;            ///< Fig. 9 "LARD-prefetch-nav"
  /// Dynamic-content extension (the paper's stated future work): dynamic
  /// pages have no cache locality, so route them to the least-loaded
  /// back-end instead of through the locality machinery, and never
  /// prefetch them.
  bool dynamic_aware = true;

  double prefetch_threshold = 0.4;     ///< Algorithm 2's Threshold
  /// Self-tuning threshold (extension): every maintenance period the
  /// threshold moves up when prefetched content goes unused (wasted disk)
  /// and down when nearly every prefetch is consumed (demand untapped),
  /// within [0.1, 0.9]. The fixed threshold the paper uses is the
  /// `false` setting.
  bool adaptive_threshold = false;
  std::size_t max_history = 8;         ///< per-connection context length
  sim::SimTime replication_interval = sim::sec(60.0);  ///< Algorithm 3's t
  logmining::ReplicationPlanOptions replication_plan{};
  std::size_t max_replication_pushes = 64;  ///< per round, hottest first
  LardOptions lard{};

  /// Display name override for ablation runs (empty = "PRORD").
  std::string display_name{};
};

/// Front-end registry of proactively placed content: file -> holders.
using HolderRegistry = std::unordered_map<trace::FileId, std::vector<ServerId>>;

/// What replication_round keeps between rounds over one tracker.
struct ReplicationRoundScratch {
  /// The ranked prefix, and what the next round needs to re-rank only the
  /// files that could have changed place.
  logmining::TopRankScratch rank;
  static constexpr std::size_t kMinRows = 16;
  /// The rows the next round ranks first: twice the last round's push
  /// rows, at least kMinRows. A round whose rows are all push rows doubles
  /// it (up to the directive cap) and ranks again.
  std::size_t next_k = kMinRows;
};

/// One periodic Algorithm 3 round at the cluster's current time: pushes
/// replicas of the hot files to the least-loaded back-ends lacking them
/// (tiers ALL, 3/4 and HALF, hottest first, at most max_replication_pushes)
/// and, when the push cap was not reached, retracts from `replicated`
/// every file whose row in the first max_directives rows of the rank table
/// (4 x max_replication_pushes when 0) falls in the NONE band. Those are
/// the round's only effects, so it ranks only a prefix that reaches past
/// the push rows, and a registered file's position in the table only when
/// its own rank is in the NONE band. Returns the replicas pushed.
std::size_t replication_round(const logmining::PopularityTracker& popularity,
                              const PrordOptions& options,
                              const trace::FileTable& files,
                              cluster::Cluster& cluster,
                              HolderRegistry& replicated,
                              ReplicationRoundScratch& scratch);

class Prord final : public DistributionPolicy {
 public:
  /// `model` is the offline mining pass output; PRORD keeps updating it
  /// online. `files` supplies sizes for prefetch/replication transfers.
  Prord(std::shared_ptr<logmining::MiningModel> model,
        const trace::FileTable& files, PrordOptions options = {});

  std::string_view name() const override;
  void start(cluster::Cluster& cluster) override;
  void finish(cluster::Cluster& cluster) override;
  void reset_counters() override {
    bundle_forwards_ = prefetch_routes_ = prefetches_triggered_ = 0;
    replication_rounds_ = replicas_pushed_ = rewarm_pushes_ = 0;
    prediction_hits_ = prediction_misses_ = 0;
  }

  /// Swaps in a re-mined model (published by adapt::ModelSwap). Takes
  /// effect for the next routed request; requests already being served
  /// keep whatever shared_ptr copies they hold — the swap is never torn.
  void set_model(std::shared_ptr<logmining::MiningModel> model);

  /// Subscribes the online adaptation loop to this policy's dispatch
  /// stream and prediction outcomes. Borrowed; nullptr detaches.
  void set_adaptation(AdaptationHooks* hooks) noexcept {
    adaptation_ = hooks;
  }
  RouteDecision route(RouteContext& ctx, cluster::Cluster& cluster) override;
  void on_routed(const trace::Request& req, ServerId server,
                 cluster::Cluster& cluster) override;
  /// Purges the dead node from both proactive registries: its memory (and
  /// with it every prefetch/replica placement) is gone.
  void on_server_down(ServerId server, cluster::Cluster& cluster) override;
  /// Re-warms the rejoining node's cold pinned region immediately from the
  /// popularity rank table (Algorithm 3 out of cycle) instead of waiting
  /// for the next periodic round — the availability win the fault bench
  /// measures.
  void on_server_up(ServerId server, cluster::Cluster& cluster) override;

  // --- Introspection for tests/benches.
  std::uint64_t bundle_forwards() const noexcept { return bundle_forwards_; }
  std::uint64_t prefetch_hits() const noexcept { return prefetch_routes_; }
  std::uint64_t prefetches_triggered() const noexcept {
    return prefetches_triggered_;
  }
  std::uint64_t replication_rounds() const noexcept {
    return replication_rounds_;
  }
  std::uint64_t replicas_pushed() const noexcept { return replicas_pushed_; }
  /// Replica pushes issued by on_server_up re-warm rounds.
  std::uint64_t rewarm_pushes() const noexcept { return rewarm_pushes_; }
  /// Current Algorithm 2 threshold (moves only with adaptive_threshold).
  double current_threshold() const noexcept { return threshold_; }
  /// Prediction scoreboard: one outcome per routed main page with
  /// navigation history — a hit iff the model's confident guess was the
  /// page actually requested (no confident guess counts as a miss).
  std::uint64_t prediction_hits() const noexcept { return prediction_hits_; }
  std::uint64_t prediction_misses() const noexcept {
    return prediction_misses_;
  }
  double prediction_hit_rate() const noexcept {
    const auto n = prediction_hits_ + prediction_misses_;
    return n ? static_cast<double>(prediction_hits_) /
                   static_cast<double>(n)
             : 0.0;
  }

 private:
  void run_maintenance(cluster::Cluster& cluster);
  void run_replication_round(cluster::Cluster& cluster);
  void adapt_threshold();
  /// Best still-caching, not-overloaded holder from a registry, pruning
  /// stale entries; kNoServer when the registry cannot serve the request.
  ServerId proactive_holder(HolderRegistry& registry, trace::FileId file,
                            cluster::Cluster& cluster);
  void stage_bundle(trace::FileId page, ServerId server,
                    cluster::Cluster& cluster);
  void trigger_prefetch(const trace::Request& req, ServerId server,
                        std::span<const trace::FileId> history,
                        cluster::Cluster& cluster);

  /// Predicts and learns in place through model_->predictor(), so a model
  /// swapped in by set_model() is used from the next request on.
  std::shared_ptr<logmining::MiningModel> model_;
  const trace::FileTable& files_;
  PrordOptions options_;
  Lard lard_;

  /// Front-end registries of proactively placed content: file -> holders.
  /// Prefetch placements (Algorithm 2) are short-lived and age out with
  /// the pinned LRU; replication placements (Algorithm 3) are managed —
  /// and retracted — by the periodic planner. Keeping them apart stops a
  /// NONE directive from undoing a prefetch made moments ago.
  HolderRegistry prefetched_;
  HolderRegistry replicated_;
  /// Per-connection navigation history (main pages) for prediction.
  std::unordered_map<std::uint32_t, std::vector<trace::FileId>> conn_history_;
  std::optional<sim::PeriodicTask> replication_task_;
  /// The periodic planner's buffers, reused round after round, so rounds
  /// stop allocating once they have grown; they also carry the last
  /// round's ranked prefix, so the next round re-ranks only it and the
  /// files hit since.
  ReplicationRoundScratch round_scratch_;

  /// Adaptation observer (adapt::AdaptiveController); null when the
  /// online loop is off.
  AdaptationHooks* adaptation_ = nullptr;

  std::uint64_t bundle_forwards_ = 0;
  std::uint64_t prefetch_routes_ = 0;
  std::uint64_t prefetches_triggered_ = 0;
  std::uint64_t replication_rounds_ = 0;
  std::uint64_t replicas_pushed_ = 0;
  std::uint64_t rewarm_pushes_ = 0;
  std::uint64_t prediction_hits_ = 0;
  std::uint64_t prediction_misses_ = 0;

  double threshold_ = 0.4;  ///< live Algorithm 2 threshold
  std::uint64_t last_prefetch_routes_ = 0;
  std::uint64_t last_prefetches_triggered_ = 0;
};

/// Convenience factories for the Fig. 9 ablation configurations.
PrordOptions prord_full_options();
PrordOptions lard_bundle_options();        ///< bundles only
PrordOptions lard_distribution_options();  ///< popularity replication only
PrordOptions lard_prefetch_nav_options();  ///< navigation prefetch only
PrordOptions prord_no_replication_options();  ///< fault-bench ablation

}  // namespace prord::policies
