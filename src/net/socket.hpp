// socket.hpp — RAII file descriptors and non-blocking TCP plumbing (POSIX).
//
// Small, explicit wrappers over the BSD socket calls the broadcast server
// needs: an owning fd type, a non-blocking IPv4 listener on an ephemeral or
// fixed port, non-blocking accept, and a blocking client-side connect (the
// tune client is sequential; only the server multiplexes). All functions
// throw std::runtime_error with errno context on failure — sockets are
// environment, not caller preconditions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace tcsa::net {

/// Owning file descriptor. Moves transfer ownership; destruction closes.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  explicit operator bool() const noexcept { return valid(); }

  /// Relinquishes ownership without closing.
  int release() noexcept { return std::exchange(fd_, -1); }

  /// Closes the descriptor (idempotent).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// Sets or clears O_NONBLOCK.
void set_nonblocking(int fd, bool on);

/// Disables Nagle's algorithm — slot frames are latency-sensitive.
void set_tcp_nodelay(int fd);

/// Shrinks the kernel send buffer (tests use tiny buffers to provoke
/// slow-client eviction quickly). `bytes` <= 0 keeps the kernel default.
void set_send_buffer(int fd, int bytes);

/// Opens a non-blocking IPv4 listener bound to `address:port` (port 0 =
/// kernel-assigned ephemeral port) with SO_REUSEADDR and a listen backlog.
Fd listen_tcp(const std::string& address, std::uint16_t port);

/// Opens a non-blocking IPv4 listener with SO_REUSEPORT (and SO_REUSEADDR)
/// so K listeners on the same concrete `address:port` shard accepted
/// connections across the kernel's per-listener queues. Binding K clones
/// directly at port 0 does NOT work: each port-0 REUSEPORT bind lands on a
/// *different* ephemeral port. Shard race-free instead: open shard 0 here
/// at port 0, read `local_port`, then open shards 1..K-1 here at that
/// concrete port — they join shard 0's reuseport group.
Fd listen_reuseport(const std::string& address, std::uint16_t port);

/// Port a bound socket actually listens on (resolves ephemeral port 0).
std::uint16_t local_port(int fd);

/// Accepts one pending connection as a non-blocking fd. Returns an invalid
/// Fd when no connection is pending (EAGAIN) — never blocks. Running out of
/// descriptors or socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) also
/// returns an invalid Fd and sets `*backoff`: the connection stays in the
/// kernel backlog, and the caller should stop polling the listener for a
/// while instead of spinning on it.
Fd accept_connection(int listener_fd, bool* backoff = nullptr);

/// Blocking IPv4 connect for clients; the returned fd stays blocking.
Fd connect_tcp(const std::string& address, std::uint16_t port);

/// Starts a non-blocking IPv4 connect and returns immediately; the fd is
/// non-blocking and the connect is usually still in flight (EINPROGRESS).
/// Poll for EPOLLOUT, then check `connect_error` before first use. Built
/// for the load generator, which opens tens of thousands of sessions and
/// cannot afford one RTT of blocking apiece.
Fd connect_tcp_nonblocking(const std::string& address, std::uint16_t port);

/// SO_ERROR of a completing non-blocking connect: 0 on success, else the
/// errno the connect failed with.
int connect_error(int fd);

}  // namespace tcsa::net
