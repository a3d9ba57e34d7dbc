#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace tcsa::net {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in make_address(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("not an IPv4 address: " + address);
  return addr;
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) fail("fcntl(F_SETFL)");
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0)
    fail("setsockopt(TCP_NODELAY)");
}

void set_send_buffer(int fd, int bytes) {
  if (bytes <= 0) return;
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) < 0)
    fail("setsockopt(SO_SNDBUF)");
}

Fd listen_tcp(const std::string& address, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) fail("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0)
    fail("setsockopt(SO_REUSEADDR)");
  const sockaddr_in addr = make_address(address, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    fail("bind " + address + ":" + std::to_string(port));
  // Backlog matches listen_reuseport: a busy event loop may be slow to
  // accept while a load generator dials in batches, and a shallow queue
  // turns that into stillborn sessions (final-ACK drops, then RST on the
  // client's first send).
  if (::listen(fd.get(), 1024) < 0) fail("listen");
  return fd;
}

Fd listen_reuseport(const std::string& address, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) fail("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0)
    fail("setsockopt(SO_REUSEADDR)");
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0)
    fail("setsockopt(SO_REUSEPORT)");
  const sockaddr_in addr = make_address(address, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    fail("bind " + address + ":" + std::to_string(port) + " (reuseport)");
  // Deeper backlog than the single-listener path: each shard absorbs
  // connection storms from the load generator's batched dials.
  if (::listen(fd.get(), 1024) < 0) fail("listen");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail("getsockname");
  return ntohs(addr.sin_port);
}

Fd accept_connection(int listener_fd, bool* backoff) {
  const int fd = ::accept4(listener_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
        errno == EINTR)
      return Fd();
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      if (backoff) *backoff = true;
      return Fd();
    }
    fail("accept4");
  }
  return Fd(fd);
}

Fd connect_tcp(const std::string& address, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) fail("socket");
  const sockaddr_in addr = make_address(address, port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) fail("connect " + address + ":" + std::to_string(port));
  return fd;
}

Fd connect_tcp_nonblocking(const std::string& address, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) fail("socket");
  const sockaddr_in addr = make_address(address, port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS)
    fail("connect " + address + ":" + std::to_string(port));
  return fd;
}

int connect_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
    fail("getsockopt(SO_ERROR)");
  return err;
}

}  // namespace tcsa::net
