// bench_live_scale: shard-scaling sweep for the sharded front end.
//
// Runs the full loopback cluster (net::run_live) at each
// requested shard count on one port, records wall-clock req/s and
// latency percentiles per shard count into a BENCH_live.json perf
// report (docs/perf_schema.json, schema v2: every scenario carries its
// `shards`), and gates CI on the 4-vs-1-shard throughput ratio.
//
// The gate auto-skips when the host has fewer cores than the gated
// shard count — a 4-shard front end cannot beat 1 shard on a 1-core
// container, and a red bench there would only measure the machine.
// CI runs this on multi-core runners where the gate is enforced;
// --force-gate overrides the check for debugging.
//
// Usage:
//   bench_live_scale [--shards 1,2,4,8] [--requests N] [--backends N]
//                    [--gate RATIO] [--gate-shards N] [--force-gate]
//                    [--no-reuseport] [--out DIR]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/perf_report.h"
#include "net/live_cluster.h"
#include "trace/models.h"

namespace {

using namespace prord;

struct Options {
  std::vector<std::uint32_t> shards = {1, 2, 4, 8};
  std::size_t requests = 40'000;
  std::uint32_t backends = 4;
  std::size_t concurrency = 32;
  double gate = 1.8;           ///< min req/s ratio at gate_shards vs 1
  std::uint32_t gate_shards = 4;
  bool force_gate = false;
  bool reuseport = true;
  std::string out_dir = ".";
};

std::vector<std::uint32_t> parse_shard_list(const char* arg) {
  std::vector<std::uint32_t> shards;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty())
        shards.push_back(
            static_cast<std::uint32_t>(std::strtoul(token.c_str(), nullptr, 10)));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return shards;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_live_scale: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--shards") {
      const char* v = next("--shards");
      if (!v) return false;
      opts.shards = parse_shard_list(v);
    } else if (a == "--requests") {
      const char* v = next("--requests");
      if (!v) return false;
      opts.requests = std::strtoull(v, nullptr, 10);
    } else if (a == "--backends") {
      const char* v = next("--backends");
      if (!v) return false;
      opts.backends = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--concurrency") {
      const char* v = next("--concurrency");
      if (!v) return false;
      opts.concurrency = std::strtoull(v, nullptr, 10);
    } else if (a == "--gate") {
      const char* v = next("--gate");
      if (!v) return false;
      opts.gate = std::strtod(v, nullptr);
    } else if (a == "--gate-shards") {
      const char* v = next("--gate-shards");
      if (!v) return false;
      opts.gate_shards =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--force-gate") {
      opts.force_gate = true;
    } else if (a == "--no-reuseport") {
      opts.reuseport = false;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      opts.out_dir = v;
    } else {
      std::fprintf(stderr, "bench_live_scale: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  if (opts.shards.empty() || opts.shards.front() != 1) {
    std::fprintf(stderr,
                 "bench_live_scale: --shards must start with 1 (the "
                 "baseline every ratio divides by)\n");
    return false;
  }
  return true;
}

net::LiveConfig scale_config(const Options& opts, std::uint32_t shards) {
  net::LiveConfig config;
  config.policy = core::PolicyKind::kPrord;
  config.backends = opts.backends;
  config.requests = opts.requests;
  config.concurrency = opts.concurrency;
  config.workload = trace::synthetic_spec();
  config.shards = shards;
  config.reuseport = opts.reuseport;
  config.load_threads = 0;  // one generator thread per shard
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  core::PerfReport report;
  report.suite = "live";
  report.git_sha = core::detect_git_sha();

  double baseline_rps = 0.0;
  double gate_rps = 0.0;
  for (const std::uint32_t shards : opts.shards) {
    const std::string name =
        "live_scale_" + std::to_string(shards) + "shard";
    std::fprintf(stderr, "[bench_live_scale] %s...\n", name.c_str());
    core::PerfScenario s;
    s.name = name;
    s.mode = shards == 1 ? "baseline" : "optimized";
    s.shards = shards;
    s.t_start_ms = core::unix_now_ms();
    const net::LiveRunResult result =
        net::run_live(scale_config(opts, shards));
    s.t_end_ms = core::unix_now_ms();
    if (!result.started) {
      std::fprintf(stderr, "[bench_live_scale] FAIL: %s did not start\n",
                   name.c_str());
      return 1;
    }
    // Conservation is the correctness contract at every shard count:
    // issued == parsed and parsed == answered, summed across shards.
    if (!result.conserved() || !result.shard_conserved()) {
      std::fprintf(stderr,
                   "[bench_live_scale] FAIL: %s lost requests "
                   "(issued=%llu completed=%llu failed=%llu parsed=%llu)\n",
                   name.c_str(),
                   static_cast<unsigned long long>(result.load.issued),
                   static_cast<unsigned long long>(result.load.completed),
                   static_cast<unsigned long long>(result.load.failed),
                   static_cast<unsigned long long>(result.dist_requests));
      return 1;
    }
    s.wall_seconds = result.load.duration_s;
    s.requests = result.load.completed;
    s.requests_per_sec = result.load.throughput_rps();
    s.p50_response_ms =
        static_cast<double>(result.load.latency_hist.p50()) / 1000.0;
    s.p99_response_ms =
        static_cast<double>(result.load.latency_hist.p99()) / 1000.0;
    std::fprintf(stderr,
                 "[bench_live_scale] %s: %.0f req/s, p99 %.2f ms, "
                 "reuseport=%d\n",
                 name.c_str(), s.requests_per_sec, s.p99_response_ms,
                 result.reuseport_used ? 1 : 0);
    if (shards == 1) baseline_rps = s.requests_per_sec;
    if (shards == opts.gate_shards) gate_rps = s.requests_per_sec;
    if (shards > 1 && baseline_rps > 0) {
      report.speedups.push_back(
          {"live_scale_rps_" + std::to_string(shards) + "x_vs_1",
           s.requests_per_sec / baseline_rps});
    }
    report.scenarios.push_back(std::move(s));
  }

  report.generated_unix_ms = core::unix_now_ms();
  const std::string path = opts.out_dir + "/BENCH_live.json";
  if (!core::write_perf_report(report, path)) return 1;
  std::fprintf(stderr, "[bench_live_scale] wrote %s\n", path.c_str());

  // --- Scaling gate. ---
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (gate_rps <= 0 || baseline_rps <= 0) {
    std::fprintf(stderr,
                 "[bench_live_scale] gate skipped: no %u-shard scenario "
                 "in the sweep\n",
                 opts.gate_shards);
    return 0;
  }
  const double ratio = gate_rps / baseline_rps;
  if (cores < opts.gate_shards && !opts.force_gate) {
    std::fprintf(stderr,
                 "[bench_live_scale] gate skipped: %u cores < %u shards "
                 "(measured %.2fx, informational only)\n",
                 cores, opts.gate_shards, ratio);
    return 0;
  }
  if (ratio < opts.gate) {
    std::fprintf(stderr,
                 "[bench_live_scale] FAIL: %u shards give %.2fx req/s vs 1 "
                 "shard (gate %.2fx)\n",
                 opts.gate_shards, ratio, opts.gate);
    return 1;
  }
  std::fprintf(stderr,
               "[bench_live_scale] gate passed: %u shards give %.2fx req/s "
               "vs 1 shard (gate %.2fx)\n",
               opts.gate_shards, ratio, opts.gate);
  return 0;
}
