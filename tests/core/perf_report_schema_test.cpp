// BENCH_*.json contract test: renders a PerfReport the way bench_perf
// does, parses it back, and validates it against the checked-in
// docs/perf_schema.json with a mini JSON-Schema validator covering
// exactly the subset the schema uses (type, required, enum, minItems,
// minimum, properties/items recursion). Semantic rules the schema cannot
// express — monotonic scenario timestamps, unique names, non-zero
// throughput, the per-suite counters — are asserted here too, so a CI
// artifact that validates is actually usable for cross-commit comparison.
// The committed BENCH_sim.json and BENCH_live.json go through the same
// checks, and the pin gate bench_perf applies to BENCH_sim.json is tested
// against mutated copies of a report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/perf_report.h"
#include "util/json.h"

namespace prord::core {
namespace {

using util::JsonValue;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A file of the source tree, by its path from the repository root.
JsonValue load_source_json(const std::filesystem::path& relative) {
  const auto root = std::filesystem::path(__FILE__)
                        .parent_path()   // tests/core
                        .parent_path()   // tests
                        .parent_path();  // repository root
  return util::json_parse(read_file(root / relative));
}

JsonValue load_schema() { return load_source_json("docs/perf_schema.json"); }

// ---------------------------------------------------------------------------
// Mini validator for the schema subset docs/perf_schema.json uses.
// ---------------------------------------------------------------------------

void validate(const JsonValue& value, const JsonValue& schema,
              const std::string& where, std::vector<std::string>& errors) {
  if (const JsonValue* type = schema.find("type")) {
    const std::string& t = type->as_string();
    bool ok = true;
    if (t == "object") ok = value.is_object();
    else if (t == "array") ok = value.is_array();
    else if (t == "string") ok = value.is_string();
    else if (t == "number") ok = value.is_number();
    else if (t == "boolean") ok = value.is_bool();
    else if (t == "integer")
      ok = value.is_number() &&
           value.as_number() == std::floor(value.as_number());
    if (!ok) {
      errors.push_back(where + ": expected " + t);
      return;
    }
  }
  if (const JsonValue* en = schema.find("enum")) {
    bool hit = false;
    for (const JsonValue& option : en->items())
      if (value.is_string() && option.is_string() &&
          value.as_string() == option.as_string())
        hit = true;
    if (!hit) errors.push_back(where + ": value not in enum");
  }
  if (const JsonValue* min = schema.find("minimum")) {
    if (value.is_number() && value.as_number() < min->as_number())
      errors.push_back(where + ": below minimum");
  }
  if (const JsonValue* required = schema.find("required")) {
    for (const JsonValue& key : required->items())
      if (!value.find(key.as_string()))
        errors.push_back(where + ": missing required key '" +
                         key.as_string() + "'");
  }
  if (const JsonValue* props = schema.find("properties")) {
    for (const auto& [key, prop_schema] : props->members())
      if (const JsonValue* member = value.find(key))
        validate(*member, prop_schema, where + "." + key, errors);
  }
  if (value.is_array()) {
    if (const JsonValue* min_items = schema.find("minItems"))
      if (value.items().size() <
          static_cast<std::size_t>(min_items->as_number()))
        errors.push_back(where + ": fewer than minItems entries");
    if (const JsonValue* items = schema.find("items")) {
      std::size_t i = 0;
      for (const JsonValue& item : value.items())
        validate(item, *items, where + "[" + std::to_string(i++) + "]",
                 errors);
    }
  }
}

std::vector<std::string> validate_report(const JsonValue& doc) {
  std::vector<std::string> errors;
  validate(doc, load_schema(), "$", errors);
  return errors;
}

/// A report shaped exactly like bench_perf's sim suite output.
PerfReport sample_report() {
  PerfReport report;
  report.suite = "sim";
  report.git_sha = "0123456789abcdef0123456789abcdef01234567";
  report.generated_unix_ms = 1754650000000ull;

  PerfScenario fig8;
  fig8.name = "fig8_memory_sweep";
  fig8.t_start_ms = 1754649990000ull;
  fig8.t_end_ms = 1754649993000ull;
  fig8.wall_seconds = 3.0;
  fig8.sim_wall_seconds = 2.4;
  fig8.sim_events = 6'000'000;
  fig8.events_per_sec = 2'000'000.0;
  fig8.requests = 120'000;
  fig8.requests_per_sec = 18'500.0;
  fig8.p50_response_ms = 1.2;
  fig8.p99_response_ms = 9.8;
  fig8.allocations = 480'000;
  fig8.allocations_per_event = 0.08;

  PerfScenario drift = fig8;
  drift.name = "drift_adaptive";
  drift.t_start_ms = fig8.t_end_ms;
  drift.t_end_ms = fig8.t_end_ms + 7000;
  drift.wall_seconds = 7.0;
  drift.sim_events = 1'500'000;
  drift.events_per_sec = 857'142.0;
  drift.allocations = 11'000'000;
  drift.allocations_per_event = 7.3;

  report.scenarios = {fig8, drift};
  return report;
}

std::string joined(const std::vector<std::string>& errors) {
  std::string all;
  for (const auto& e : errors) all += "  " + e + "\n";
  return all;
}

// Semantic checks bench_perf's consumers rely on (core::report_violations,
// which write_perf_report applies before it writes a report).
void check_semantics(const JsonValue& doc) {
  const auto violations = report_violations(doc);
  EXPECT_TRUE(violations.empty()) << "semantic violations:\n"
                                  << joined(violations);
}

TEST(PerfReportSchema, RenderedReportValidates) {
  const JsonValue doc =
      util::json_parse(render_perf_report(sample_report()));
  const auto errors = validate_report(doc);
  EXPECT_TRUE(errors.empty()) << "schema violations:\n" << joined(errors);
  check_semantics(doc);
  EXPECT_EQ(static_cast<int>(doc.find("schema_version")->as_number()),
            kPerfSchemaVersion);
}

TEST(PerfReportSchema, RoundTripPreservesValues) {
  PerfReport report = sample_report();
  report.speedups = {{"live_tracing_1pct_rps_ratio", 0.97}};
  const JsonValue doc = util::json_parse(render_perf_report(report));
  EXPECT_EQ(doc.find("suite")->as_string(), "sim");
  EXPECT_EQ(doc.find("git_sha")->as_string(), report.git_sha);
  // Integral fields survive bit-exact (the writer renders them as
  // integers, not scientific notation).
  EXPECT_EQ(static_cast<std::uint64_t>(
                doc.find("generated_unix_ms")->as_number()),
            report.generated_unix_ms);
  const JsonValue& s0 = doc.find("scenarios")->items()[0];
  EXPECT_EQ(static_cast<std::uint64_t>(s0.find("sim_events")->as_number()),
            report.scenarios[0].sim_events);
  EXPECT_DOUBLE_EQ(s0.find("p99_response_ms")->as_number(), 9.8);
  const JsonValue* ratio =
      doc.find("speedups")->find("live_tracing_1pct_rps_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->as_number(), 0.97);
}

TEST(PerfReportSchema, ValidatorHasTeeth) {
  // Mutations a drifting emitter could produce must be caught — otherwise
  // the CI validation step is theater.
  PerfReport report = sample_report();
  report.suite = "turbo";  // not in the suite enum
  JsonValue doc = util::json_parse(render_perf_report(report));
  EXPECT_FALSE(validate_report(doc).empty());

  // Empty scenario list violates minItems.
  PerfReport empty = sample_report();
  empty.scenarios.clear();
  EXPECT_FALSE(
      validate_report(util::json_parse(render_perf_report(empty))).empty());

  // A document missing a required top-level key.
  JsonValue bare = JsonValue::object();
  bare.set("schema_version", 1);
  EXPECT_FALSE(validate_report(bare).empty());
}

TEST(PerfReportSchema, CommittedReportsValidate) {
  // The BENCH files at the repository root are the perf trajectory and
  // bench_perf's --pin; a stale or hand-edited one must not slip through.
  for (const auto& [file, suite] :
       {std::pair{"BENCH_sim.json", "sim"},
        std::pair{"BENCH_live.json", "live"}}) {
    SCOPED_TRACE(file);
    const JsonValue doc = load_source_json(file);
    ASSERT_TRUE(doc.is_object());
    const auto errors = validate_report(doc);
    EXPECT_TRUE(errors.empty()) << "schema violations:\n" << joined(errors);
    if (!errors.empty()) continue;
    EXPECT_EQ(doc.find("suite")->as_string(), suite);
    EXPECT_EQ(static_cast<int>(doc.find("schema_version")->as_number()),
              kPerfSchemaVersion);
    check_semantics(doc);
  }
}

TEST(PerfReportSchema, PinPassesOnItsOwnReport) {
  const PerfReport report = sample_report();
  const JsonValue pin = util::json_parse(render_perf_report(report));
  EXPECT_TRUE(pin_violations(pin, report).empty())
      << joined(pin_violations(pin, report));

  // Fewer allocations than pinned pass; the pin is a ceiling.
  PerfReport leaner = report;
  leaner.scenarios[1].allocations -= 1;
  EXPECT_TRUE(pin_violations(pin, leaner).empty());
}

TEST(PerfReportSchema, PinFailsOnAnyCounterDrift) {
  const PerfReport report = sample_report();
  const JsonValue pin = util::json_parse(render_perf_report(report));

  PerfReport more_events = report;
  more_events.scenarios[0].sim_events += 1;
  EXPECT_EQ(pin_violations(pin, more_events).size(), 1u);
  PerfReport fewer_events = report;
  fewer_events.scenarios[0].sim_events -= 1;
  EXPECT_EQ(pin_violations(pin, fewer_events).size(), 1u);

  PerfReport more_allocs = report;
  more_allocs.scenarios[1].allocations += 1;
  EXPECT_EQ(pin_violations(pin, more_allocs).size(), 1u);

  // A pinned scenario that did not run.
  PerfReport missing = report;
  missing.scenarios.pop_back();
  EXPECT_EQ(pin_violations(pin, missing).size(), 1u);

  // A pin whose counts are zero pins nothing: a failure, not a pass.
  PerfReport zeroed = report;
  zeroed.scenarios[0].allocations = 0;
  EXPECT_EQ(pin_violations(util::json_parse(render_perf_report(zeroed)),
                           report)
                .size(),
            1u);

  // A pin with no scenarios at all.
  PerfReport empty = report;
  empty.scenarios.clear();
  EXPECT_FALSE(
      pin_violations(util::json_parse(render_perf_report(empty)), report)
          .empty());
}

TEST(PerfReportSchema, SemanticRulesHaveTeeth) {
  const auto violations = [](const PerfReport& r) {
    return report_violations(util::json_parse(render_perf_report(r)));
  };
  EXPECT_TRUE(violations(sample_report()).empty());

  PerfReport out_of_order = sample_report();
  std::swap(out_of_order.scenarios[0], out_of_order.scenarios[1]);
  EXPECT_FALSE(violations(out_of_order).empty());

  PerfReport repeated = sample_report();
  repeated.scenarios[1].name = repeated.scenarios[0].name;
  EXPECT_FALSE(violations(repeated).empty());

  PerfReport no_events = sample_report();
  no_events.scenarios[0].sim_events = 0;
  EXPECT_FALSE(violations(no_events).empty());

  PerfReport sharded_sim = sample_report();
  sharded_sim.scenarios[0].shards = 1;
  EXPECT_FALSE(violations(sharded_sim).empty());

  PerfReport empty = sample_report();
  empty.scenarios.clear();
  EXPECT_FALSE(violations(empty).empty());
}

// A live cell that fails to start (bench_perf under `ulimit -n 12`, where
// no loopback socket opens) leaves a scenario with its name, its shard and
// its clock bracket and nothing else. Such a report must never reach disk.
TEST(PerfReportSchema, FailedLiveCellIsNeverWritten) {
  PerfReport live;
  live.suite = "live";
  live.git_sha = "0123456789abcdef0123456789abcdef01234567";
  live.generated_unix_ms = 1754650000000ull;
  for (const char* name : {"live_loopback_burst", "live_prefetch_off"}) {
    PerfScenario s;
    s.name = name;
    s.shards = 1;
    s.t_start_ms = s.t_end_ms = 1754650000000ull;
    live.scenarios.push_back(s);
  }
  live.scenarios[0].requests = 15'000;
  live.scenarios[0].requests_per_sec = 21'000.0;  // only the second failed
  const auto violations =
      report_violations(util::json_parse(render_perf_report(live)));
  ASSERT_EQ(violations.size(), 1u) << joined(violations);
  EXPECT_NE(violations[0].find("live_prefetch_off"), std::string::npos);

  const auto path = std::filesystem::temp_directory_path() /
                    ("prord_failed_live_" + std::to_string(::getpid()) +
                     ".json");
  std::filesystem::remove(path);
  EXPECT_FALSE(write_perf_report(live, path.string()));
  EXPECT_FALSE(std::filesystem::exists(path));

  live.scenarios[1].requests_per_sec = 19'000.0;
  EXPECT_TRUE(write_perf_report(live, path.string()));
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(PerfReportSchema, ParserRejectsMalformedInput) {
  EXPECT_THROW(util::json_parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(util::json_parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(util::json_parse("[1, 2"), std::runtime_error);
}

}  // namespace
}  // namespace prord::core
