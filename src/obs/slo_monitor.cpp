#include "obs/slo_monitor.h"

#include <algorithm>

namespace prord::obs {

SloMonitor::SloMonitor(SloOptions options) : options_(options) {
  if (options_.slice_us <= 0) options_.slice_us = 1'000'000;
  options_.short_window_us =
      std::max(options_.short_window_us, options_.slice_us);
  options_.long_window_us =
      std::max(options_.long_window_us, options_.short_window_us);
  budget_ = std::max(1.0 - options_.availability_objective, 1e-9);
  // +2: the window straddles partial slices at both ends.
  slices_.resize(static_cast<std::size_t>(
      options_.long_window_us / options_.slice_us + 2));
}

void SloMonitor::record(std::int64_t now_us, std::int64_t latency_us,
                        bool success) {
  const bool bad = !success || latency_us > options_.latency_objective_us;
  const std::int64_t idx = now_us / options_.slice_us;
  Slice& slice = slices_[static_cast<std::size_t>(idx) % slices_.size()];
  if (slice.index != idx) {
    slice.index = idx;
    slice.total = 0;
    slice.bad = 0;
  }
  slice.total += 1;
  if (bad) slice.bad += 1;
  total_ += 1;
  if (bad) bad_ += 1;
  hist_.record(static_cast<std::uint64_t>(std::max<std::int64_t>(
      latency_us, 0)));
}

SloWindowEval SloMonitor::eval_window(std::int64_t now_us,
                                      std::int64_t window_us) const {
  SloWindowEval eval;
  eval.window_us = window_us;
  const std::int64_t last = now_us / options_.slice_us;
  const std::int64_t first =
      std::max<std::int64_t>(0, (now_us - window_us) / options_.slice_us + 1);
  for (const Slice& slice : slices_) {
    if (slice.index < first || slice.index > last) continue;
    eval.total += slice.total;
    eval.bad += slice.bad;
  }
  if (eval.total > 0)
    eval.error_rate = static_cast<double>(eval.bad) /
                      static_cast<double>(eval.total);
  eval.burn_rate = eval.error_rate / budget_;
  return eval;
}

SloEval SloMonitor::evaluate(std::int64_t now_us) const {
  SloEval eval;
  eval.at_us = now_us;
  eval.short_window = eval_window(now_us, options_.short_window_us);
  eval.long_window = eval_window(now_us, options_.long_window_us);
  eval.violating = eval.short_window.burn_rate >= options_.burn_alert &&
                   eval.long_window.burn_rate >= options_.burn_alert;
  return eval;
}

namespace {

util::JsonValue window_json(const SloWindowEval& w) {
  util::JsonValue out = util::JsonValue::object();
  out.set("window_us", w.window_us);
  out.set("total", w.total);
  out.set("bad", w.bad);
  out.set("error_rate", w.error_rate);
  out.set("burn_rate", w.burn_rate);
  return out;
}

}  // namespace

util::JsonValue SloMonitor::to_json_value(std::int64_t now_us) const {
  const SloEval eval = evaluate(now_us);
  util::JsonValue doc = util::JsonValue::object();
  doc.set("at_us", eval.at_us);
  util::JsonValue objectives = util::JsonValue::object();
  objectives.set("latency_us", options_.latency_objective_us);
  objectives.set("availability", options_.availability_objective);
  objectives.set("burn_alert", options_.burn_alert);
  objectives.set("error_budget", budget_);
  doc.set("objectives", std::move(objectives));
  doc.set("short", window_json(eval.short_window));
  doc.set("long", window_json(eval.long_window));
  doc.set("violating", eval.violating);
  util::JsonValue cumulative = util::JsonValue::object();
  cumulative.set("total", total_);
  cumulative.set("bad", bad_);
  cumulative.set("latency_p50_us", hist_.quantile(0.50));
  cumulative.set("latency_p99_us", hist_.quantile(0.99));
  cumulative.set("latency_max_us", hist_.max());
  doc.set("cumulative", std::move(cumulative));
  return doc;
}

}  // namespace prord::obs
