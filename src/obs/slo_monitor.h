// SLO monitor: log-bucketed latency tracking + multi-window burn rates.
//
// The service-level indicator is the classic "good request" fraction: a
// request is *bad* when it failed (5xx / connection loss) or exceeded the
// latency objective. Requests land in fixed-duration time slices (a ring
// sized to the long window), so evaluating a rolling window is a sum over
// at most window/slice counters — O(1) per request on the record path.
//
// Burn rate per window = observed error rate / error budget, where the
// budget is 1 - availability objective. The alerting rule is the standard
// multi-window policy: a violation requires BOTH the short and long
// windows to burn faster than `burn_alert` — the short window makes the
// alert fast to clear, the long window keeps one latency blip from
// paging (docs/OBSERVABILITY.md "SLO burn-rate semantics").
//
// Single-threaded by contract: the distributor's event loop records and
// evaluates; snapshots for /metrics and /slo render on the same thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "util/json.h"

namespace prord::obs {

struct SloOptions {
  std::int64_t slice_us = 1'000'000;  ///< time-slice granularity
  std::int64_t short_window_us = 5ll * 60 * 1'000'000;   ///< 5 m
  std::int64_t long_window_us = 60ll * 60 * 1'000'000;   ///< 1 h
  std::int64_t latency_objective_us = 50'000;  ///< p99-style "good" bound
  double availability_objective = 0.999;       ///< target good fraction
  double burn_alert = 10.0;  ///< both windows over this => violation
};

struct SloWindowEval {
  std::int64_t window_us = 0;
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  double error_rate = 0.0;  ///< bad / total (0 when empty)
  double burn_rate = 0.0;   ///< error_rate / error budget
};

struct SloEval {
  std::int64_t at_us = 0;
  SloWindowEval short_window;
  SloWindowEval long_window;
  bool violating = false;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloOptions options = {});

  const SloOptions& options() const noexcept { return options_; }
  /// 1 - availability objective, floored away from zero so burn rates
  /// stay finite even for a 100% objective.
  double error_budget() const noexcept { return budget_; }

  /// Feeds one settled request. `now_us` must be monotone non-decreasing
  /// (wall microseconds since run start). A request is bad when !success
  /// or its latency exceeds the objective.
  void record(std::int64_t now_us, std::int64_t latency_us, bool success);

  /// Rolling evaluation of both windows ending at `now_us`.
  SloEval evaluate(std::int64_t now_us) const;

  /// Cumulative (whole-run) accounting.
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t bad() const noexcept { return bad_; }
  const metrics::Histogram& latency_hist() const noexcept { return hist_; }

  /// One JSON object with the objectives, both window evaluations and
  /// cumulative latency quantiles — the body of the distributor's /slo
  /// endpoint. Parses with util::json_parse.
  util::JsonValue to_json_value(std::int64_t now_us) const;
  std::string to_json(std::int64_t now_us) const {
    return to_json_value(now_us).dump();
  }

 private:
  struct Slice {
    std::int64_t index = -1;  ///< now_us / slice_us; -1 = never used
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };

  SloWindowEval eval_window(std::int64_t now_us,
                            std::int64_t window_us) const;

  SloOptions options_;
  double budget_;
  std::vector<Slice> slices_;  ///< ring indexed by slice index % size
  std::uint64_t total_ = 0;
  std::uint64_t bad_ = 0;
  metrics::Histogram hist_{1ULL << 32};
};

}  // namespace prord::obs
