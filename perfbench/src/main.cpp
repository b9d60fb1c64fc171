// prord_perfbench: one run of one benchmark workload.
//
//   prord_perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//
// Prints progress and correctness failures on stderr and, as the last line
// of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports every end-to-end metric, --trace 1 every per-layer
// metric (0 where the workload does not exercise the layer). Exits 0 only
// when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricSpec {
  std::string name;
  const char* unit;
};

/// The end-to-end metrics, in output order. BENCHMARK.json lists the same
/// names (the benchmark's tests check that).
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"host_rps", "1/s"},
      {"throughput_rps", "1/s"}, {"p50_ms", "ms"},
      {"p99_ms", "ms"},          {"mean_ms", "ms"},
      {"hit_ratio", "ratio"},    {"cpu_us_per_req", "us"},
      {"allocs_per_req", "count"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"simcore.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.allocs_per_event", "count"},
        {"cluster.cache_ns", "ns"},
        {"cluster.cache_allocs", "count"},
        {"logmining.record_ns", "ns"},
        {"logmining.rank_us_per_round", "us"},
        {"logmining.mine_s", "s"},
        {"logmining.pred_hit_ratio", "ratio"},
        {"adapt.observe_ns", "ns"},
        {"adapt.remine_ms", "ms"},
        {"adapt.allocs_per_req", "count"},
        {"policies.replicas_pushed", "count"},
        {"policies.prefetches", "count"},
        {"core.dispatch_per_req", "count"},
        {"net.parse_ns", "ns"},
        {"net.parse_allocs", "count"},
        {"net.format_ns", "ns"},
        {"net.format_allocs", "count"},
        {"net.route_ns", "ns"},
        {"net.route_allocs", "count"},
    };
    for (const char* hop : {"parse", "route", "upstream_send", "upstream_wait",
                            "backend_cache", "backend_serve", "relay",
                            "reorder_hold"}) {
      s.push_back({std::string("hop.") + hop + "_us.mean", "us"});
      s.push_back({std::string("hop.") + hop + "_us.p99", "us"});
    }
    s.insert(s.end(), {{"hop.unattributed_us.mean", "us"},
                       {"live.sys_share", "ratio"},
                       {"live.ctx_switches_per_req", "count"},
                       {"predict.feed_ns", "ns"},
                       {"obs.trace_overhead", "ratio"},
                       {"loadgen.cpu_share", "ratio"},
                       {"loadgen.offered_ratio", "ratio"}});
    return s;
  }();
  return specs;
}

void usage() {
  std::fprintf(stderr,
               "usage: prord_perfbench --workload sim_fig8|live_closed "
               "--seed N --seconds S --trace 0|1 [--smoke]\n");
}

bool parse_args(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string_view(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return have_workload && perfbench::is_workload(o.workload) &&
         o.seconds >= 0;
}

/// Emits the result line. A metric the mode requires but the run did not
/// set is a correctness failure for end-to-end metrics (every workload
/// must produce all of them) and 0 for per-layer ones (layer idle).
void print_result(const Options& o, Report& report) {
  const auto& specs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : report.values) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || s.name == name;
    report.check(known, "unknown metric " + name);
  }
  std::string metrics;
  for (const MetricSpec& s : specs) {
    const auto it = report.values.find(s.name);
    double value = 0.0;
    if (it == report.values.end()) {
      report.check(o.trace, "metric " + s.name + " was not measured");
    } else {
      value = it->second;
    }
    report.check(std::isfinite(value), "metric " + s.name + " is not finite");
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + s.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               s.unit + "\"}";
  }
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "perfbench: FAILED CHECK: %s\n", e.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }
  Report report;
  try {
    if (options.trace)
      perfbench::run_per_layer(options, report);
    else
      perfbench::run_end_to_end(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.check(report.attempted > 0, "no requests attempted");
  print_result(options, report);
  return report.errors.empty() ? 0 : 1;
}
