#include "core/perf_report.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace prord::core {
namespace {

util::JsonValue scenario_to_json(const PerfScenario& s) {
  util::JsonValue v = util::JsonValue::object();
  v.set("name", s.name);
  v.set("t_start_ms", s.t_start_ms);
  v.set("t_end_ms", s.t_end_ms);
  v.set("wall_seconds", s.wall_seconds);
  v.set("sim_wall_seconds", s.sim_wall_seconds);
  v.set("sim_events", s.sim_events);
  v.set("events_per_sec", s.events_per_sec);
  v.set("requests", s.requests);
  v.set("requests_per_sec", s.requests_per_sec);
  v.set("p50_response_ms", s.p50_response_ms);
  v.set("p99_response_ms", s.p99_response_ms);
  v.set("allocations", s.allocations);
  v.set("allocations_per_event", s.allocations_per_event);
  v.set("shards", static_cast<std::uint64_t>(s.shards));
  return v;
}

}  // namespace

util::JsonValue perf_report_to_json(const PerfReport& report) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema_version", kPerfSchemaVersion);
  doc.set("suite", report.suite);
  doc.set("git_sha", report.git_sha);
  doc.set("generated_unix_ms", report.generated_unix_ms);
  util::JsonValue scenarios = util::JsonValue::array();
  for (const PerfScenario& s : report.scenarios)
    scenarios.push_back(scenario_to_json(s));
  doc.set("scenarios", std::move(scenarios));
  util::JsonValue speedups = util::JsonValue::object();
  for (const PerfRatio& r : report.speedups) speedups.set(r.name, r.value);
  doc.set("speedups", std::move(speedups));
  return doc;
}

std::string render_perf_report(const PerfReport& report) {
  return perf_report_to_json(report).dump();
}

std::vector<std::string> report_violations(const util::JsonValue& doc) {
  const util::JsonValue* suite = doc.find("suite");
  const util::JsonValue* scenarios = doc.find("scenarios");
  if (!suite || !suite->is_string() || !scenarios || !scenarios->is_array() ||
      scenarios->items().empty())
    return {"report has no suite or no scenarios"};
  const bool sim = suite->as_string() == "sim";
  const auto number = [](const util::JsonValue& s, std::string_view key) {
    const util::JsonValue* v = s.find(key);
    return v && v->is_number() ? v->as_number() : 0.0;
  };
  std::vector<std::string> out;
  std::vector<std::string> names;
  double prev_start = 0.0;
  for (const util::JsonValue& s : scenarios->items()) {
    const util::JsonValue* name = s.find("name");
    const std::string label =
        name && name->is_string() ? name->as_string() : "<unnamed>";
    const double start = number(s, "t_start_ms");
    if (start < prev_start)
      out.push_back(label + ": scenario list not time-ordered");
    if (number(s, "t_end_ms") < start)
      out.push_back(label + ": scenario ends before it starts");
    prev_start = start;
    if (!(number(s, "requests_per_sec") > 0.0))
      out.push_back(label + ": scenario carries zero throughput");
    if (std::find(names.begin(), names.end(), label) != names.end())
      out.push_back(label + ": scenario name repeats");
    names.push_back(label);
    if (sim) {
      if (!(number(s, "sim_events") > 0.0))
        out.push_back(label + ": sim scenario without sim_events");
      if (!(number(s, "allocations") > 0.0))
        out.push_back(label + ": sim scenario without allocations");
      if (number(s, "shards") != 0.0)
        out.push_back(label + ": sim scenario with shards");
    } else if (!(number(s, "shards") >= 1.0)) {
      out.push_back(label + ": live scenario without a shard");
    }
  }
  return out;
}

bool write_perf_report(const PerfReport& report, const std::string& path) {
  const std::vector<std::string> violations =
      report_violations(perf_report_to_json(report));
  for (const std::string& v : violations)
    std::fprintf(stderr, "perf_report: %s: %s\n", path.c_str(), v.c_str());
  if (!violations.empty()) {
    std::fprintf(stderr, "perf_report: %s not written\n", path.c_str());
    return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perf_report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << render_perf_report(report);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "perf_report: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> pin_violations(const util::JsonValue& pinned,
                                        const PerfReport& measured) {
  std::vector<std::string> out;
  const util::JsonValue* scenarios = pinned.find("scenarios");
  if (!scenarios || !scenarios->is_array() || scenarios->items().empty())
    return {"pin holds no scenarios"};
  const auto count = [](const util::JsonValue& s, std::string_view key) {
    const util::JsonValue* v = s.find(key);
    return v && v->is_number() ? static_cast<std::uint64_t>(v->as_number())
                               : std::uint64_t{0};
  };
  for (const util::JsonValue& pin : scenarios->items()) {
    const util::JsonValue* name = pin.find("name");
    const std::string label =
        name && name->is_string() ? name->as_string() : "<unnamed>";
    const std::uint64_t events = count(pin, "sim_events");
    const std::uint64_t allocs = count(pin, "allocations");
    if (events == 0 || allocs == 0) {
      out.push_back(label + ": pinned sim_events/allocations is zero");
      continue;
    }
    const auto it = std::find_if(
        measured.scenarios.begin(), measured.scenarios.end(),
        [&](const PerfScenario& s) { return s.name == label; });
    if (it == measured.scenarios.end()) {
      out.push_back(label + ": pinned scenario was not run");
      continue;
    }
    if (it->sim_events != events)
      out.push_back(label + ": sim_events " + std::to_string(it->sim_events) +
                    " != pinned " + std::to_string(events));
    if (it->allocations > allocs)
      out.push_back(label + ": allocations " +
                    std::to_string(it->allocations) + " > pinned " +
                    std::to_string(allocs));
  }
  return out;
}

std::string detect_git_sha() {
  for (const char* var : {"GITHUB_SHA", "PRORD_GIT_SHA"}) {
    if (const char* sha = std::getenv(var); sha && *sha) return sha;
  }
  // Local runs: ask git. popen is fine here — this is a bench binary, not
  // simulation code.
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128] = {0};
    std::string sha;
    if (std::fgets(buf, sizeof buf, pipe)) sha = buf;
    ::pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
      sha.pop_back();
    if (sha.size() >= 7) return sha;
  }
  return "unknown";
}

std::uint64_t unix_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace prord::core
