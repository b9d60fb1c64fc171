// The distributor's relay contract over real loopback sockets: the
// client's bytes are the worker's bytes, responses come back in request
// order even when a later request finishes first, reads larger than one
// recv chunk arrive intact, and requests pipelined ahead of a malformed
// one are still answered before the connection closes.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "net/backend_worker.h"
#include "net/distributor.h"
#include "net/http.h"
#include "net/live_router.h"
#include "net/site_store.h"
#include "net/socket.h"
#include "obs/trace_context.h"
#include "trace/workload.h"

namespace prord::net {
namespace {

/// One recv chunk of the distributor and the workers.
constexpr std::size_t kReadChunk = 64 * 1024;

constexpr std::string_view kPage = "/index.html";
constexpr std::string_view kDynamic = "/cgi-bin/search.cgi";
constexpr std::string_view kSlow = "/big/slow.html";
constexpr std::string_view kLarge = "/large.html";
const std::vector<std::string> kSmall = {"/s/0.gif", "/s/1.gif", "/s/2.gif",
                                         "/s/3.gif"};

trace::FileTable site_files() {
  trace::FileTable files;
  files.intern(kPage, 2'000);
  files.intern(kDynamic, 1'500);
  files.intern(kSlow, 2'000'000);
  files.intern(kLarge, 300'000);
  for (const std::string& url : kSmall) files.intern(url, 200);
  return files;
}

/// Workers + belief router + distributor over site_files(), torn down in
/// reverse order.
class RelayCluster {
 public:
  RelayCluster(core::PolicyKind policy, std::uint32_t backends,
               double trace_sample_rate = 0.0) {
    for (std::uint32_t i = 0; i < backends; ++i) {
      workers_.push_back(std::make_unique<BackendWorker>(
          i, store_, /*cache_capacity=*/1ull << 26));
      started_ = workers_.back()->start() && started_;
    }
    core::ExperimentConfig cfg;
    cfg.policy = policy;
    cfg.params.num_backends = backends;
    router_ = std::make_unique<LiveRouter>(cfg, nullptr, files_,
                                           /*demand_bytes=*/1ull << 26,
                                           /*pinned_bytes=*/0);
    std::vector<BackendWorker*> raw;
    for (auto& w : workers_) raw.push_back(w.get());
    dist_ = std::make_unique<Distributor>(*router_, store_, raw);
    DistributorObsOptions obs;
    obs.trace_sample_rate = trace_sample_rate;
    dist_->configure_obs(obs);
    started_ = dist_->start() && started_;
  }

  bool started() const { return started_; }
  std::uint16_t port() const { return dist_->port(); }
  Distributor& dist() { return *dist_; }
  const SiteStore& store() const { return store_; }
  std::string payload(std::string_view url) const {
    return store_.make_payload(store_.lookup(url));
  }

 private:
  trace::FileTable files_ = site_files();
  SiteStore store_{files_};
  std::vector<std::unique_ptr<BackendWorker>> workers_;
  std::unique_ptr<LiveRouter> router_;
  std::unique_ptr<Distributor> dist_;
  bool started_ = true;
};

/// Blocking client connection that gives up on a silent peer.
Fd dial(std::uint16_t port) {
  Fd fd = connect_loopback(port);
  if (fd) {
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads until `count` responses parsed (or EOF, error, timeout) and
/// returns each one's raw bytes.
std::vector<std::string> read_responses(int fd, std::size_t count) {
  std::vector<std::string> out;
  ResponseParser parser;
  char buf[16 * 1024];
  while (out.size() < count) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    if (!parser.consume(std::string_view(buf, static_cast<std::size_t>(r))))
      break;
    while (auto resp = parser.pop()) out.emplace_back(resp->raw);
  }
  return out;
}

/// True once the peer closed the connection (recv returns 0).
bool peer_closed(int fd) {
  char c = 0;
  while (true) {
    const ssize_t r = ::recv(fd, &c, 1, 0);
    if (r < 0 && errno == EINTR) continue;
    return r == 0;
  }
}

/// The worker's X- header lines of `resp` as (name, value), in wire order.
std::vector<std::pair<std::string, std::string>> x_headers(
    const HttpResponse& resp) {
  std::vector<std::pair<std::string, std::string>> out;
  std::string_view block = resp.headers;
  while (!block.empty()) {
    const std::size_t eol = block.find("\r\n");
    const std::string_view line = block.substr(0, eol);
    if (line.starts_with("X-")) {
      const std::size_t colon = line.find(':');
      std::string_view value = line.substr(colon + 1);
      while (value.starts_with(' ')) value.remove_prefix(1);
      out.emplace_back(line.substr(0, colon), value);
    }
    block = eol == std::string_view::npos ? std::string_view{}
                                          : block.substr(eol + 2);
  }
  return out;
}

/// The relay the distributor performed before it went verbatim: status,
/// reason and body re-rendered around the worker's X- headers, in order.
std::string rerendered(const HttpResponse& resp) {
  std::string extra;
  for (const auto& [name, value] : x_headers(resp))
    extra += name + ": " + value + "\r\n";
  return format_response(resp.status, resp.reason, resp.body, extra);
}

/// Fetches `urls` pipelined on one fresh connection.
std::vector<std::string> fetch(std::uint16_t port,
                               const std::vector<std::string>& urls) {
  Fd fd = dial(port);
  if (!fd) return {};
  std::string wire;
  for (const std::string& url : urls) append_request(wire, url);
  if (!send_all(fd.get(), wire)) return {};
  return read_responses(fd.get(), urls.size());
}

TEST(LiveRelay, ClientBytesAreTheWorkersBytes) {
  RelayCluster cluster(core::PolicyKind::kWrr, /*backends=*/1);
  ASSERT_TRUE(cluster.started());
  const std::string page(kPage), dynamic(kDynamic);
  const std::vector<std::string> raw =
      fetch(cluster.port(), {page, page, dynamic});
  ASSERT_EQ(raw.size(), 3u);

  // Exactly what the worker rendered: MISS, then HIT, then DYN.
  const std::string_view x_cache[] = {"MISS", "HIT", "DYN"};
  const std::string_view urls[] = {kPage, kPage, kDynamic};
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string expected = format_response(
        200, "OK", cluster.payload(urls[i]),
        "X-Backend: 0\r\nX-Cache: " + std::string(x_cache[i]) + "\r\n");
    EXPECT_EQ(raw[i], expected) << i;
    ResponseParser p;
    ASSERT_TRUE(p.consume(raw[i])) << i;
    const auto resp = p.pop();
    ASSERT_TRUE(resp.has_value()) << i;
    EXPECT_EQ(raw[i], rerendered(*resp)) << i;
  }
}

TEST(LiveRelay, TracedResponsesKeepTheWorkersTimingHeaders) {
  RelayCluster cluster(core::PolicyKind::kWrr, /*backends=*/1,
                       /*trace_sample_rate=*/1.0);
  ASSERT_TRUE(cluster.started());
  const std::string page(kPage);
  const std::vector<std::string> raw = fetch(cluster.port(), {page, page});
  ASSERT_EQ(raw.size(), 2u);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ResponseParser p;
    ASSERT_TRUE(p.consume(raw[i])) << i;
    const auto resp = p.pop();
    ASSERT_TRUE(resp.has_value()) << i;
    EXPECT_EQ(raw[i], rerendered(*resp)) << i;
    EXPECT_EQ(resp->body, cluster.payload(kPage)) << i;
    const std::vector<std::string> expected_names = {
        "X-Backend", "X-Cache", std::string(obs::kTraceHeader),
        std::string(obs::kServeUsHeader), std::string(obs::kCacheUsHeader)};
    std::vector<std::string> names;
    for (const auto& header : x_headers(*resp)) names.push_back(header.first);
    EXPECT_EQ(names, expected_names) << i;
    EXPECT_TRUE(resp->header(obs::kServeUsHeader).has_value()) << i;
    EXPECT_TRUE(resp->header(obs::kCacheUsHeader).has_value()) << i;
  }
  cluster.dist().stop();
  EXPECT_EQ(cluster.dist().spans().size(), 2u);
}

TEST(LiveRelay, OutOfOrderResponsesRelayInRequestOrder) {
  // LARD spreads four fresh files over four workers; the first is large,
  // so the other three come back first and park in the reorder ring.
  RelayCluster cluster(core::PolicyKind::kLard, /*backends=*/4,
                       /*trace_sample_rate=*/1.0);
  ASSERT_TRUE(cluster.started());
  Fd fd = dial(cluster.port());
  ASSERT_TRUE(fd.valid());
  const std::vector<std::string> round = {std::string(kSlow), kSmall[1],
                                          kSmall[2], kSmall[3]};
  constexpr int kRounds = 20;
  for (int r = 0; r < kRounds; ++r) {
    std::string wire;
    for (const std::string& url : round) append_request(wire, url);
    ASSERT_TRUE(send_all(fd.get(), wire));
    const std::vector<std::string> raw = read_responses(fd.get(), 4);
    ASSERT_EQ(raw.size(), 4u) << r;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      ResponseParser p;
      ASSERT_TRUE(p.consume(raw[i]));
      const auto resp = p.pop();
      ASSERT_TRUE(resp.has_value());
      EXPECT_EQ(resp->status, 200) << r << "/" << i;
      EXPECT_TRUE(resp->body.starts_with(round[i])) << r << "/" << i;
      EXPECT_EQ(resp->body.size(),
                cluster.store().size_bytes(cluster.store().lookup(round[i])))
          << r << "/" << i;
    }
  }
  fd.reset();
  cluster.dist().stop();
  // The slow path ran: some response waited behind an earlier one.
  const auto& spans = cluster.dist().spans();
  ASSERT_EQ(spans.size(), 4u * kRounds);
  std::int64_t max_hold = 0;
  for (const obs::LiveSpan& s : spans) {
    EXPECT_EQ(s.hop_sum(), s.response_time());
    max_hold = std::max(
        max_hold, s.hop_us[static_cast<unsigned>(obs::LiveHop::kReorderHold)]);
  }
  EXPECT_GT(max_hold, 0);
}

TEST(LiveRelay, PayloadLargerThanOneReadArrivesIntact) {
  RelayCluster cluster(core::PolicyKind::kWrr, /*backends=*/1);
  ASSERT_TRUE(cluster.started());
  const std::string large(kLarge);
  ASSERT_GT(cluster.payload(kLarge).size(), kReadChunk);
  const std::vector<std::string> raw = fetch(cluster.port(), {large, large});
  ASSERT_EQ(raw.size(), 2u);
  for (const std::string& bytes : raw) {
    ResponseParser p;
    ASSERT_TRUE(p.consume(bytes));
    const auto resp = p.pop();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body, cluster.payload(kLarge));
  }
}

TEST(LiveRelay, PipelinedBurstLargerThanOneReadArrivesIntact) {
  RelayCluster cluster(core::PolicyKind::kWrr, /*backends=*/2);
  ASSERT_TRUE(cluster.started());
  std::vector<std::string> urls;
  std::string wire;
  while (wire.size() <= 2 * kReadChunk) {
    urls.push_back(kSmall[urls.size() % kSmall.size()]);
    append_request(wire, urls.back());
  }
  Fd fd = dial(cluster.port());
  ASSERT_TRUE(fd.valid());
  ASSERT_TRUE(send_all(fd.get(), wire));  // one burst, > 2 read chunks
  const std::vector<std::string> raw = read_responses(fd.get(), urls.size());
  ASSERT_EQ(raw.size(), urls.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ResponseParser p;
    ASSERT_TRUE(p.consume(raw[i]));
    const auto resp = p.pop();
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, 200) << i;
    ASSERT_EQ(resp->body, cluster.payload(urls[i])) << i;
  }
  cluster.dist().stop();
  EXPECT_EQ(cluster.dist().counters().requests.load(), urls.size());
  EXPECT_EQ(cluster.dist().counters().parse_errors.load(), 0u);
}

TEST(LiveRelay, RequestsAheadOfAParseErrorAreAnswered) {
  RelayCluster cluster(core::PolicyKind::kWrr, /*backends=*/1);
  ASSERT_TRUE(cluster.started());
  Fd fd = dial(cluster.port());
  ASSERT_TRUE(fd.valid());
  std::string wire;
  append_request(wire, kPage);
  append_request(wire, kSmall[0]);
  wire += "garbage\r\n\r\n";
  ASSERT_TRUE(send_all(fd.get(), wire));  // one send: both GETs + garbage
  const std::vector<std::string> raw = read_responses(fd.get(), 2);
  ASSERT_EQ(raw.size(), 2u);
  const std::string_view urls[] = {kPage, kSmall[0]};
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ResponseParser p;
    ASSERT_TRUE(p.consume(raw[i]));
    const auto resp = p.pop();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200) << i;
    EXPECT_EQ(resp->body, cluster.payload(urls[i])) << i;
  }
  // ...and then the distributor closes the connection.
  EXPECT_TRUE(peer_closed(fd.get()));
  cluster.dist().stop();
  EXPECT_EQ(cluster.dist().counters().parse_errors.load(), 1u);
}

}  // namespace
}  // namespace prord::net
