#include "net/socket.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace prord::net {

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

bool reuseport_supported() {
  static const bool supported = [] {
    Fd probe(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!probe) return false;
    const int one = 1;
    return ::setsockopt(probe.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                        sizeof(one)) == 0;
  }();
  return supported;
}

Fd listen_loopback(std::uint16_t& port, const ListenOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
    return {};
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return {};
  if (::listen(fd.get(), options.backlog) != 0) return {};
  if (port == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      return {};
    port = ntohs(addr.sin_port);
  }
  return fd;
}

Fd listen_loopback(std::uint16_t& port, int backlog) {
  ListenOptions options;
  options.backlog = backlog;
  return listen_loopback(port, options);
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return {};
  sockaddr_in addr = loopback_addr(port);
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return {};
  }
  set_nodelay(fd.get());
  return fd;
}

EpollLoop::EpollLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (valid()) add(wake_.get(), EPOLLIN, kWakeKey);
}

bool EpollLoop::add(int fd, std::uint32_t events, std::uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool EpollLoop::add_listener(int fd, std::uint64_t key, bool* exclusive) {
#ifdef EPOLLEXCLUSIVE
  if (add(fd, EPOLLIN | EPOLLEXCLUSIVE, key)) {
    if (exclusive) *exclusive = true;
    return true;
  }
#endif
  if (exclusive) *exclusive = false;
  return add(fd, EPOLLIN, key);
}

bool EpollLoop::mod(int fd, std::uint32_t events, std::uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EpollLoop::del(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int EpollLoop::wait(std::span<epoll_event> out, int timeout_ms) {
  while (true) {
    const int n = ::epoll_wait(epoll_.get(), out.data(),
                               static_cast<int>(out.size()), timeout_ms);
    if (n >= 0) {
      for (int i = 0; i < n; ++i) {
        if (out[static_cast<std::size_t>(i)].data.u64 == kWakeKey) {
          std::uint64_t drain = 0;
          while (::read(wake_.get(), &drain, sizeof(drain)) > 0) {
          }
        }
      }
      return n;
    }
    if (errno != EINTR) return -1;
  }
}

void EpollLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_.get(), &one, sizeof(one));
}

bool OutQueue::flush(int fd) {
  if (empty()) return true;
  ssize_t sent;
  do {
    sent = ::send(fd, buf_.data() + off_, buf_.size() - off_, MSG_NOSIGNAL);
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  off_ += static_cast<std::size_t>(sent);
  if (off_ == buf_.size()) {
    if (buf_.capacity() > kRetainBytes)
      std::string().swap(buf_);
    else
      buf_.clear();
    off_ = 0;
  } else if (off_ > buf_.size() / 2) {
    // Slow reader: drop the sent prefix so appends do not grow the
    // buffer without bound.
    buf_.erase(0, off_);
    off_ = 0;
  }
  return true;
}

}  // namespace prord::net
