// Splitting one replay over several load-generator threads (split_load, as
// run_live does with load_threads > 1) must divide the trace, not copy it:
// each generator drives its own trace connections and issues their share
// of the budget. A recording loopback server logs every request target;
// every trace request has a URL of its own, so the targets name the
// requests.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/load_generator.h"
#include "net/socket.h"

namespace prord::net {
namespace {

/// 240 requests over 11 trace connections, 1 ms apart, one URL each.
trace::Workload distinct_url_trace() {
  trace::Workload w;
  for (std::uint32_t i = 0; i < 240; ++i) {
    trace::Request req;
    req.at = sim::msec(i);
    req.conn = i % 11;
    req.client = req.conn;
    req.bytes = 100;
    req.file = w.files.intern("/r/" + std::to_string(i) + ".html", 100);
    w.requests.push_back(req);
  }
  w.num_connections = 11;
  return w;
}

/// Answers every request with an empty 200 and records its target.
class RecordingServer {
 public:
  RecordingServer() : listener_(listen_loopback(port_)) {
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~RecordingServer() {
    stop_ = true;
    acceptor_.join();
    for (std::thread& t : conns_) t.join();
  }
  RecordingServer(const RecordingServer&) = delete;
  RecordingServer& operator=(const RecordingServer&) = delete;

  std::uint16_t port() const { return port_; }
  bool listening() const { return listener_.valid(); }

  /// Targets received since the last call, sorted.
  std::vector<std::string> take() {
    std::lock_guard lock(mu_);
    std::vector<std::string> out;
    out.swap(targets_);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void accept_loop() {
    while (!stop_ && listener_.valid()) {
      pollfd p{listener_.get(), POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd >= 0) conns_.emplace_back([this, fd] { serve(Fd(fd)); });
    }
  }

  void serve(Fd fd) {
    static constexpr std::string_view kOk =
        "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
    RequestParser parser;
    char buf[4096];
    while (!stop_) {
      pollfd p{fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
      if (n <= 0 ||
          !parser.consume(std::string_view(buf, static_cast<std::size_t>(n))))
        return;
      while (auto req = parser.pop()) {
        {
          std::lock_guard lock(mu_);
          targets_.emplace_back(req->target);
        }
        if (::send(fd.get(), kOk.data(), kOk.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(kOk.size()))
          return;
      }
    }
  }

  std::uint16_t port_ = 0;
  Fd listener_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::string> targets_;  // guarded by mu_
  std::vector<std::thread> conns_;    // touched by the acceptor only
  std::thread acceptor_;
};

TEST(LoadSplit, TwoThreadsIssueDisjointHalvesOfOneThreadsPass) {
  const trace::Workload trace = distinct_url_trace();
  RecordingServer server;
  ASSERT_TRUE(server.listening());

  // One open-loop pass with every arrival due at once: each channel sends
  // its whole plan in the first sweep, well before its next cycle is due
  // (1 s later), so what is issued does not depend on timing.
  LoadGenOptions whole;
  whole.port = server.port();
  whole.concurrency = 4;
  whole.open_loop = true;
  whole.time_scale = 1e6;

  const LoadGenResult one = LoadGenerator(trace, whole).run();
  ASSERT_EQ(one.completed, trace.requests.size());
  const std::vector<std::string> all = server.take();
  ASSERT_EQ(all.size(), trace.requests.size());

  std::vector<std::vector<std::string>> halves;
  for (std::size_t t = 0; t < 2; ++t) {
    const LoadGenOptions slice = split_load(trace, whole, t, 2);
    EXPECT_EQ(slice.concurrency, 2u);
    const LoadGenResult r = LoadGenerator(trace, slice).run();
    EXPECT_EQ(r.issued, slice.total_requests);
    EXPECT_EQ(r.completed, r.issued);
    EXPECT_GT(r.issued, 0u);
    halves.push_back(server.take());
  }
  std::vector<std::string> both;
  std::set_intersection(halves[0].begin(), halves[0].end(), halves[1].begin(),
                        halves[1].end(), std::back_inserter(both));
  EXPECT_TRUE(both.empty()) << both.size() << " requests issued twice";
  both.clear();
  std::merge(halves[0].begin(), halves[0].end(), halves[1].begin(),
             halves[1].end(), std::back_inserter(both));
  EXPECT_EQ(both, all);
}

TEST(LoadSplit, SlicesTileTheChannelsAndTheBudget) {
  const trace::Workload trace = distinct_url_trace();
  for (const std::size_t channels : {1u, 4u, 5u, 16u}) {
    for (const std::size_t threads : {1u, 2u, 3u}) {
      if (threads > channels) continue;
      for (const std::size_t budget : {0u, 7u, 240u, 1000u}) {
        LoadGenOptions whole;
        whole.concurrency = channels;
        whole.total_requests = budget;
        std::size_t next_channel = 0, issued = 0;
        for (std::size_t t = 0; t < threads; ++t) {
          const LoadGenOptions s = split_load(trace, whole, t, threads);
          EXPECT_EQ(s.first_channel, next_channel);
          EXPECT_EQ(s.total_channels, channels);
          next_channel += s.concurrency;
          issued += s.total_requests;
        }
        EXPECT_EQ(next_channel, channels);
        EXPECT_EQ(issued, budget ? budget : trace.requests.size())
            << channels << " channels, " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace prord::net
