#include "net/backend_worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/trace_context.h"

namespace prord::net {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

constexpr std::string_view kCacheHit = "X-Cache: HIT\r\n";
constexpr std::string_view kCacheMiss = "X-Cache: MISS\r\n";
constexpr std::string_view kCacheDyn = "X-Cache: DYN\r\n";

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

BackendWorker::BackendWorker(std::uint32_t id, const SiteStore& site,
                             std::uint64_t cache_capacity)
    : id_(id),
      backend_header_("X-Backend: " + std::to_string(id) + "\r\n"),
      site_(site),
      cache_(cache_capacity, /*pinned_capacity=*/0),
      payloads_(site.count()) {}

BackendWorker::~BackendWorker() { stop(); }

bool BackendWorker::start() {
  if (started_) return true;
  port_ = 0;
  listen_ = listen_loopback(port_);
  if (!listen_ || !loop_.valid()) return false;
  if (!set_nonblocking(listen_.get())) return false;
  if (!loop_.add(listen_.get(), EPOLLIN, 0)) return false;
  started_ = true;
  thread_ = std::thread([this] { run(); });
  return true;
}

void BackendWorker::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  loop_.wake();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void BackendWorker::preload(trace::FileId file) {
  if (file == trace::kInvalidFile || file >= site_.count()) return;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.lookup(file)) return;  // resident: refreshed
  }
  auto payload = std::make_shared<const std::string>(site_.make_payload(file));
  stats_.preloads.fetch_add(1, std::memory_order_relaxed);
  cache_put(file, std::move(payload));
}

bool BackendWorker::caches(trace::FileId file) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.contains(file);
}

std::shared_ptr<const std::string> BackendWorker::cache_get(
    trace::FileId file) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.lookup(file) ? payloads_[file] : nullptr;
}

void BackendWorker::cache_put(trace::FileId file,
                              std::shared_ptr<const std::string> payload) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  // A resident file (preloaded while this miss was materializing) is only
  // refreshed and keeps its payload; an oversized one is not cached.
  cache_.insert_demand(file, payload->size(), &evicted_);
  for (const trace::FileId victim : evicted_) {
    obs::flight_record(obs::FlightEventType::kCacheEvict, id_, victim,
                       payloads_[victim]->size());
    payloads_[victim].reset();
  }
  evicted_.clear();
  if (!payloads_[file] && cache_.contains(file))
    payloads_[file] = std::move(payload);
}

void BackendWorker::run() {
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  if (flight.enabled())
    flight.name_thread_ring("backend" + std::to_string(id_));
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = loop_.wait(events, /*timeout_ms=*/200);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      const auto& ev = events[static_cast<std::size_t>(i)];
      const std::uint64_t key = ev.data.u64;
      if (key == EpollLoop::kWakeKey) continue;
      if (key == 0) {
        // Listen socket: accept everything pending.
        while (true) {
          const int cfd =
              ::accept4(listen_.get(), nullptr, nullptr, SOCK_CLOEXEC);
          if (cfd < 0) break;
          set_nonblocking(cfd);
          set_nodelay(cfd);
          const std::uint64_t ckey = next_conn_key_++;
          Conn conn;
          conn.fd = Fd(cfd);
          conn.key = ckey;
          auto [it, ok] = conns_.emplace(ckey, std::move(conn));
          if (ok && !loop_.add(cfd, EPOLLIN, ckey)) conns_.erase(it);
        }
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool dead = false;
      if (ev.events & (EPOLLHUP | EPOLLERR)) dead = true;
      if (!dead && (ev.events & EPOLLIN)) handle_readable(conn);
      if (!dead && (ev.events & (EPOLLIN | EPOLLOUT))) dead = !flush(conn);
      // Requests are answered synchronously, so a closing connection
      // (EOF, Connection: close, parse error) is done once out drains.
      if (!dead && conn.closing && conn.out.empty()) dead = true;
      if (dead) {
        loop_.del(conn.fd.get());
        conns_.erase(it);
      }
    }
  }
}

void BackendWorker::handle_readable(Conn& conn) {
  char buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn.parser.failed() &&
          !conn.parser.consume(
              std::string_view(buf, static_cast<std::size_t>(n))))
        conn.closing = true;
      while (auto req = conn.parser.pop()) serve_request(conn, *req);
      // A short read drained the socket; level-triggered epoll reports
      // anything that arrives later.
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {  // orderly shutdown from the peer
      conn.closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    conn.closing = true;
    return;
  }
}

void BackendWorker::serve_request(Conn& conn, const HttpRequest& req) {
  if (!req.keep_alive) conn.closing = true;
  // Every response is rendered straight into the connection's out
  // buffer: status line, Content-Length, X-Backend, `cache_header` (a
  // complete line or empty), `trace_headers`, blank line, body. The
  // distributor relays these bytes verbatim, so this framing is what the
  // client receives.
  const auto render = [&](int status, std::string_view reason,
                          std::string_view body,
                          std::string_view cache_header,
                          std::string_view trace_headers) {
    std::string& out = conn.out.buffer();
    append_response_head(out, status, reason, body.size());
    out.append(backend_header_);
    out.append(cache_header);
    out.append(trace_headers);
    out.append("\r\n");
    out.append(body);
  };

  // Cache-warming request class (docs/PREDICTOR.md): load the payload
  // into the LRU but send only a tiny ack back — the point is residency,
  // not bytes on the loopback — and keep every client-facing counter
  // untouched.
  if (req.header("X-Prord-Prefetch")) {
    stats_.prefetch_requests.fetch_add(1, std::memory_order_relaxed);
    const trace::FileId file = site_.lookup(req.target);
    if (file == trace::kInvalidFile || SiteStore::is_dynamic(req.target)) {
      render(204, "No Content", "", {}, {});
      return;
    }
    std::string_view cache_header = kCacheHit;
    if (cache_get(file)) {
      stats_.prefetch_resident.fetch_add(1, std::memory_order_relaxed);
    } else {
      cache_put(file, std::make_shared<const std::string>(
                          site_.make_payload(file)));
      stats_.prefetch_loads.fetch_add(1, std::memory_order_relaxed);
      cache_header = kCacheMiss;
    }
    render(200, "OK", "warmed\n", cache_header, {});
    return;
  }

  stats_.requests.fetch_add(1, std::memory_order_relaxed);

  // Traced request (docs/OBSERVABILITY.md "Live tracing"): measure the
  // cache section and the total handling time, and echo both back —
  // X-Prord-Serve-Us / X-Prord-Cache-Us let the distributor split its
  // measured round trip into queue-wait vs back-end work. The trace
  // header itself is echoed with the hop sequence bumped (0 = distributor
  // origin, 1 = this worker). Untraced requests pay one header lookup.
  const std::optional<std::string_view> trace_hdr =
      req.header(obs::kTraceHeader);
  const bool traced = trace_hdr.has_value();
  const std::int64_t t_start = traced ? steady_us() : 0;
  std::int64_t cache_us = 0;

  const auto finish = [&](int status, std::string_view reason,
                          std::string_view body,
                          std::string_view cache_header) {
    if (!trace_hdr) {
      render(status, reason, body, cache_header, {});
      return;
    }
    std::string trace_headers;
    if (auto context = obs::parse_trace_header(*trace_hdr)) {
      context->hop += 1;
      trace_headers.append("X-Prord-Trace: ")
          .append(obs::format_trace_header(*context))
          .append("\r\n");
    }
    const std::int64_t serve_us =
        std::max<std::int64_t>(steady_us() - t_start, cache_us);
    trace_headers.append("X-Prord-Serve-Us: ")
        .append(std::to_string(serve_us))
        .append("\r\nX-Prord-Cache-Us: ")
        .append(std::to_string(cache_us))
        .append("\r\n");
    render(status, reason, body, cache_header, trace_headers);
  };

  const trace::FileId file = site_.lookup(req.target);
  if (file == trace::kInvalidFile) {
    stats_.not_found.fetch_add(1, std::memory_order_relaxed);
    finish(404, "Not Found", "missing\n", {});
    return;
  }

  if (SiteStore::is_dynamic(req.target)) {
    // CPU-generated content: never cached, body rebuilt per request.
    stats_.dynamic_served.fetch_add(1, std::memory_order_relaxed);
    const std::string body = site_.make_payload(file);
    stats_.bytes_out.fetch_add(body.size(), std::memory_order_relaxed);
    finish(200, "OK", body, kCacheDyn);
    return;
  }

  const std::int64_t t_cache = traced ? steady_us() : 0;
  std::shared_ptr<const std::string> payload = cache_get(file);
  std::string_view cache_header = kCacheHit;
  if (payload) {
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    payload =
        std::make_shared<const std::string>(site_.make_payload(file));
    cache_put(file, payload);
    cache_header = kCacheMiss;
  }
  if (traced) cache_us = steady_us() - t_cache;
  stats_.bytes_out.fetch_add(payload->size(), std::memory_order_relaxed);
  finish(200, "OK", *payload, cache_header);
}

bool BackendWorker::flush(Conn& conn) {
  if (!conn.out.flush(conn.fd.get())) return false;
  // Kernel buffer full: watch for writability until drained.
  const bool want_write = !conn.out.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    loop_.mod(conn.fd.get(), want_write ? EPOLLIN | EPOLLOUT : EPOLLIN,
              conn.key);
  }
  return true;
}

}  // namespace prord::net
