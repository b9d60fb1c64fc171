// Measurement probes shared by the workload runs and the layer replays:
// heap-allocation counters, CPU clocks, wall clock, and order statistics.
//
// Allocations are counted by global operator new replacements in probe.cpp:
// one process-wide counter and one per thread. The per-thread counter is
// what lets a live run charge allocations to the server threads only —
// run_live() drives the load generator on the calling thread, so
// (process - calling thread) is exactly what the workers, the distributor
// and the prediction service allocated.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t process_allocs() noexcept;
std::uint64_t thread_allocs() noexcept;

/// CPU time and context switches from getrusage().
struct CpuSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary

  double total_s() const noexcept { return user_s + sys_s; }
};
CpuSample cpu_process();      ///< RUSAGE_SELF: every thread, live or joined
CpuSample cpu_this_thread();  ///< RUSAGE_THREAD: the calling thread only
CpuSample operator-(const CpuSample& a, const CpuSample& b);

/// Seconds on the monotonic clock.
double now_s();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);
/// Estimators over repetitions of one timed measurement. Other tenants of
/// a shared host only ever slow a repetition down, in spells that can
/// cover most of a run. The lower quartile of a time or a cost, and the
/// upper quartile of a rate, ignore a spell that covers up to three
/// quarters of the repetitions; a change that slows more than three
/// quarters of them still shows.
inline double rate_estimate(std::vector<double> reps) {
  return quantile(std::move(reps), 0.75);
}
inline double cost_estimate(std::vector<double> reps) {
  return quantile(std::move(reps), 0.25);
}
/// A p99 rises several-fold in a spell, so it takes the lower decile: an
/// intermittent tail regression that stalls fewer than nine tenths of the
/// repetitions is not detected.
inline double tail_estimate(std::vector<double> reps) {
  return quantile(std::move(reps), 0.1);
}

/// What one benchmark invocation measured. Units live with the metric
/// catalogue in main.cpp.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Correctness failures; the run is correct iff this stays empty.
  std::vector<std::string> errors;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records `what` as a correctness failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

}  // namespace perfbench
