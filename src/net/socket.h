// Thin RAII wrappers over the Linux socket and epoll syscalls used by the
// live loopback cluster. Everything binds/connects 127.0.0.1 only — this
// is a measurement prototype, not an exposed server.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace prord::net {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  explicit operator bool() const noexcept { return valid(); }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Puts the descriptor in non-blocking mode. Returns false on failure.
bool set_nonblocking(int fd);

/// Disables Nagle (latency over tiny loopback writes). Best-effort.
void set_nodelay(int fd);

/// Listener knobs. The default backlog is sized for accept storms from a
/// multi-threaded load generator — 128 (the old default) overflows during
/// connection bursts and the kernel silently drops SYNs, which shows up as
/// seconds-long retransmit stalls rather than errors.
struct ListenOptions {
  int backlog = 1024;
  /// Request SO_REUSEPORT so several shards can bind the same port and let
  /// the kernel spread connections across them.
  bool reuseport = false;
};

/// True when this kernel accepts SO_REUSEPORT on a TCP socket. Probed once
/// (one throwaway socket) and cached.
bool reuseport_supported();

/// Listening socket bound to 127.0.0.1:`port`; `port` 0 picks an
/// ephemeral port and is updated to the one the kernel chose. Invalid Fd
/// on failure (errno holds the cause).
Fd listen_loopback(std::uint16_t& port, const ListenOptions& options);
Fd listen_loopback(std::uint16_t& port, int backlog = 1024);

/// Blocking connect to 127.0.0.1:`port` (setup path only — the returned
/// socket is switched to non-blocking by the caller when it enters an
/// event loop). Invalid Fd on failure.
Fd connect_loopback(std::uint16_t port);

/// Level-triggered epoll loop with an eventfd wake channel so other
/// threads can interrupt a blocking wait.
class EpollLoop {
 public:
  EpollLoop();
  bool valid() const noexcept { return epoll_.valid() && wake_.valid(); }

  /// Registers `fd` with event mask `events`; `key` comes back in
  /// epoll_event::data.u64. Returns false on syscall failure.
  bool add(int fd, std::uint32_t events, std::uint64_t key);

  /// add() with EPOLLEXCLUSIVE so concurrent listeners on a shared socket
  /// don't all wake per connection (thundering herd). Falls back to a plain
  /// add() where the kernel rejects the flag; `exclusive` (optional) reports
  /// which mode stuck. EPOLLEXCLUSIVE forbids a later mod() on the fd — only
  /// use this for listen sockets whose mask never changes.
  bool add_listener(int fd, std::uint64_t key, bool* exclusive = nullptr);
  bool mod(int fd, std::uint32_t events, std::uint64_t key);
  void del(int fd);

  /// Waits up to `timeout_ms` (-1 = forever). Returns the number of ready
  /// events written to `out`, 0 on timeout, -1 on failure (EINTR is
  /// retried internally). Wake-channel events are consumed and reported
  /// with key == kWakeKey.
  int wait(std::span<epoll_event> out, int timeout_ms);

  /// Thread-safe: makes a concurrent (or the next) wait() return.
  void wake();

  static constexpr std::uint64_t kWakeKey = ~0ull;

 private:
  Fd epoll_;
  Fd wake_;
};

/// Outbound bytes of one connection: a single buffer that renderers
/// append to in place and that flush() hands to one send(), so a burst of
/// K queued responses costs one syscall. The buffer keeps its capacity
/// between bursts; once drained above kRetainBytes it gives it back.
class OutQueue {
 public:
  void push(std::string_view bytes) { buf_.append(bytes); }
  /// The tail to render into (append only; sent bytes sit before it).
  std::string& buffer() noexcept { return buf_; }

  bool empty() const noexcept { return off_ == buf_.size(); }

  /// Writes as much as the socket accepts with one send (MSG_NOSIGNAL).
  /// Returns false on a fatal socket error; EAGAIN or a short write is a
  /// successful partial flush (the socket buffer is full).
  bool flush(int fd);

  void clear() noexcept {
    buf_.clear();
    off_ = 0;
  }

  static constexpr std::size_t kRetainBytes = 256 * 1024;

 private:
  std::string buf_;
  std::size_t off_ = 0;  ///< bytes of buf_ already sent
};

}  // namespace prord::net
