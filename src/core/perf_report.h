// Perf-report model for the BENCH_*.json artifacts (docs/PERF.md).
//
// bench_perf fills one PerfReport per suite ("sim", "live";
// bench_live_scale writes a third "live" report) and renders it
// through util::JsonValue with a STABLE schema — docs/perf_schema.json is
// the contract, tests/core/perf_report_schema_test.cpp enforces it, and
// the CI perf job uploads the files so runs are comparable across
// commits. Schema changes must bump `kPerfSchemaVersion` and update the
// checked-in schema in the same commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace prord::core {

inline constexpr int kPerfSchemaVersion = 3;

/// One timed scenario run.
struct PerfScenario {
  std::string name;  ///< e.g. "fig8_memory_sweep"; unique within a report
  /// Wall-clock bracket (unix epoch ms). Monotonic across the scenario
  /// list — the schema test checks it.
  std::uint64_t t_start_ms = 0;
  std::uint64_t t_end_ms = 0;
  double wall_seconds = 0.0;        ///< whole scenario incl. setup
  double sim_wall_seconds = 0.0;    ///< inside the sim loop; 0 for live
  std::uint64_t sim_events = 0;     ///< 0 for live scenarios
  double events_per_sec = 0.0;      ///< sim_events / sim_wall_seconds
  std::uint64_t requests = 0;
  double requests_per_sec = 0.0;    ///< simulated (sim) or wall (live) rate
  double p50_response_ms = 0.0;
  double p99_response_ms = 0.0;
  std::uint64_t allocations = 0;    ///< heap allocations during the run
  double allocations_per_event = 0.0;
  /// Front-end distributor shards the scenario ran with (schema v2).
  /// 0 for sim scenarios; >= 1 for live ones.
  std::uint32_t shards = 0;
};

/// One named ratio between two scenarios of a report (e.g. the live
/// tracing tax, traced / untraced req/s).
struct PerfRatio {
  std::string name;
  double value = 0.0;
};

struct PerfReport {
  std::string suite;  ///< "sim" | "live"
  std::string git_sha;
  std::uint64_t generated_unix_ms = 0;
  std::vector<PerfScenario> scenarios;
  std::vector<PerfRatio> speedups;
};

/// Report -> JSON document (schema_version, suite, git_sha, timestamps,
/// scenarios[], speedups{}).
util::JsonValue perf_report_to_json(const PerfReport& report);

/// Serialized report (perf_report_to_json().dump()).
std::string render_perf_report(const PerfReport& report);

/// The semantic rules docs/perf_schema.json cannot express, on a rendered
/// report: scenarios listed in start order, none ending before it starts,
/// every one with non-zero throughput and a unique name; sim scenarios
/// with sim_events and allocations and no shards, live ones with at least
/// one shard. Returns one line per violation; empty means the report is
/// fit for cross-commit comparison.
std::vector<std::string> report_violations(const util::JsonValue& doc);

/// Writes the report to `path`; false (with a stderr note) when it breaks
/// a semantic rule — nothing is written then — or on I/O failure.
bool write_perf_report(const PerfReport& report, const std::string& path);

/// The pin gate on a sim report's deterministic counters: for every
/// scenario of `pinned` (a parsed BENCH_sim.json), `measured` must hold a
/// scenario of the same name whose sim_events equal the pinned count and
/// whose allocations do not exceed it. A missing scenario, a pinned count
/// of zero or a pin with no scenarios is a violation too. Returns one
/// line per violation; empty means the gate passes.
std::vector<std::string> pin_violations(const util::JsonValue& pinned,
                                        const PerfReport& measured);

/// Commit id for the report: $GITHUB_SHA, else $PRORD_GIT_SHA, else
/// `git rev-parse HEAD`, else "unknown".
std::string detect_git_sha();

/// Wall clock in unix epoch milliseconds.
std::uint64_t unix_now_ms();

}  // namespace prord::core
