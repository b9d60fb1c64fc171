// The benchmark's workloads and the runs that measure them.
//
// Each workload reaches the system only through its public entry points —
// core::run_experiment for the simulator, net::run_live for the loopback
// cluster — and builds its inputs from the seed alone. README.md records
// why each workload exists and what every metric means.
#pragma once

#include <cstdint>
#include <string>

#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny traces and request counts: a quick run of every code path for
  /// the benchmark's own tests. Its numbers are not comparable to a full
  /// run's.
  bool smoke = false;
};

bool is_workload(const std::string& name);
bool is_sim_workload(const std::string& name);

/// Untraced run: fills every end-to-end metric.
void run_end_to_end(const Options& options, Report& report);

/// Traced run: fills the per-layer metrics the workload exercises (the
/// rest stay 0) — run counters, the layer replays over the workload's own
/// request stream and, on live workloads, hop spans at 100% sampling.
void run_per_layer(const Options& options, Report& report);

}  // namespace perfbench
