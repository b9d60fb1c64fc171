// LoadGenerator: trace-replay client for the live loopback cluster.
//
// Replays a trace::Workload against the distributor over `concurrency`
// persistent HTTP/1.1 connections (channels). Trace connections hash onto
// channels, so one trace connection's requests stay on one channel in
// trace order. Two driving modes:
//   - closed loop (default): each channel keeps at most `pipeline_depth`
//     requests outstanding and sends the next one when a response lands —
//     the firehose that measures saturation throughput;
//   - open loop (paced): each request is sent at its trace arrival time
//     divided by `time_scale`, regardless of outstanding responses.
// Latency is measured send-to-response per request on the wall clock.
//
// Single-threaded epoll: run() blocks the calling thread until
// `total_requests` have settled (completed + failed) or the inactivity
// timeout trips (remaining in-flight requests are then counted failed, so
// conservation — completed + failed == issued — always holds).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "net/http.h"
#include "net/socket.h"
#include "trace/workload.h"

namespace prord::net {

struct LoadGenOptions {
  std::uint16_t port = 0;            ///< distributor port
  std::size_t concurrency = 16;      ///< parallel channels
  /// Split replays (see split_load): this generator drives channels
  /// [first_channel, first_channel + concurrency) of `total_channels`
  /// (0 = concurrency). Trace connection c rides channel
  /// c % total_channels, so generators with disjoint channel ranges replay
  /// disjoint connections.
  std::size_t first_channel = 0;
  std::size_t total_channels = 0;
  /// 0 = one pass over this generator's trace connections.
  std::size_t total_requests = 0;
  std::size_t pipeline_depth = 1;    ///< closed-loop outstanding cap
  bool open_loop = false;
  double time_scale = 1.0;           ///< open loop: arrival compression
  std::int64_t idle_timeout_us = 10'000'000;  ///< abort when nothing moves
};

struct LoadGenResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;  ///< responses received (any status)
  std::uint64_t failed = 0;     ///< connection loss / timeout casualties
  std::uint64_t status_ok = 0;      ///< 2xx responses
  std::uint64_t status_error = 0;   ///< non-2xx responses
  std::uint64_t bytes_in = 0;
  double duration_s = 0.0;
  metrics::RunningStats latency_us;
  metrics::Histogram latency_hist{1ULL << 32};

  bool conserved() const noexcept { return completed + failed == issued; }
  double throughput_rps() const {
    return duration_s > 0 ? static_cast<double>(completed) / duration_s : 0.0;
  }
};

/// Options for generator `t` of `threads` that together replay what one
/// generator with `whole` would: each drives its own block of `whole`'s
/// channels — so its own trace connections, at their own arrival times —
/// and issues the share of the request budget its connections hold in the
/// trace. Channel remainders go to generator 0. `whole.total_requests` 0
/// means one pass, as for a single generator. The slice's budget is always
/// explicit; a slice whose share is 0 has nothing to issue and must not
/// run (its 0 would read as one pass).
LoadGenOptions split_load(const trace::Workload& workload,
                          const LoadGenOptions& whole, std::size_t t,
                          std::size_t threads);

class LoadGenerator {
 public:
  /// `workload` is borrowed and must outlive run().
  LoadGenerator(const trace::Workload& workload, LoadGenOptions options);

  /// Blocking replay; returns the settled result.
  LoadGenResult run();

 private:
  struct Channel {
    Fd fd;
    ResponseParser parser;
    std::string out;
    std::size_t out_off = 0;
    bool want_write = false;
    std::vector<std::size_t> plan;  ///< workload request indices, in order
    std::size_t cursor = 0;         ///< next plan position (wraps)
    std::deque<std::int64_t> sent_at_us;  ///< in-flight send stamps
    std::uint64_t issued = 0;
  };

  bool send_next(Channel& ch, std::int64_t now_us);
  bool flush(Channel& ch, std::size_t idx);
  void fail_inflight(Channel& ch);
  bool reconnect(Channel& ch, std::size_t idx);

  const trace::Workload& workload_;
  LoadGenOptions options_;
  EpollLoop loop_;
  std::vector<Channel> channels_;
  std::uint64_t budget_ = 0;  ///< requests still to issue
  LoadGenResult result_;
};

}  // namespace prord::net
