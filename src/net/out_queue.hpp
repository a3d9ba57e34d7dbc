// out_queue.hpp — chunked per-session egress queue and vectored flush.
//
// A session behind a full socket used to buffer bytes in one std::string,
// paying a copy per enqueue and an O(buffered) memmove per partial send.
// OutQueue replaces that with a ring of {SharedBuf, offset} chunks:
// enqueueing a frame shared by many sessions is one refcount bump, a fully
// sent chunk retires in O(1) from the front, and a partially sent front
// chunk just advances its offset. The ring's storage is a power of two of
// chunks that it keeps when flushes empty it and doubles only when full,
// so a session whose flushes keep up never allocates. Queued-bytes
// accounting (bytes()) is the quantity the slow-client eviction cap is
// measured against.
//
// flush_queue() drains a queue into a non-blocking socket with
// sendmsg(iovec) batching — up to kFlushBatch chunks (bounded by IOV_MAX)
// per syscall — so a backlogged session catches up in one call instead of
// one send per frame. It distinguishes bytes the kernel accepted
// (bytes_sent, from syscall return values) from bytes whose chunk fully
// retired (bytes_retired): the two differ transiently by the partially
// sent front chunk, and feed the server's bytes_sent / bytes_flushed
// counters respectively.
#pragma once

#include <limits.h>
#include <sys/uio.h>

#include <cstddef>
#include <memory>

#include "net/shared_buf.hpp"

namespace tcsa::net {

/// Chunks per sendmsg call. IOV_MAX (POSIX floor 16, 1024 on Linux) is the
/// kernel's hard cap; 256 keeps the gathered iovec array to 4 KiB of stack
/// while still retiring a deep backlog in a handful of syscalls.
inline constexpr std::size_t kFlushBatch = 256 < IOV_MAX ? 256 : IOV_MAX;

/// One queued run of bytes: the shared buffer and how far into it the
/// socket has already progressed.
struct OutChunk {
  SharedBuf buf;
  std::size_t offset = 0;
};

class OutQueue {
 public:
  OutQueue() = default;
  OutQueue(OutQueue&& other) noexcept;
  OutQueue& operator=(OutQueue&& other) noexcept;

  /// Enqueues a buffer (refcount bump, no byte copy). Empty buffers are
  /// ignored — a zero-length chunk would make a sendmsg iovec no-op.
  void push(SharedBuf buf);

  bool empty() const noexcept { return count_ == 0; }

  /// Bytes queued but not yet sent (the eviction-cap quantity).
  std::size_t bytes() const noexcept { return bytes_; }

  /// Queued chunk count (offsets make this ≠ bytes()/frame_size).
  std::size_t chunks() const noexcept { return count_; }

  /// Fills up to `max_iov` iovecs with the unsent spans of the front
  /// chunks, in queue order. Returns the number filled.
  std::size_t gather(struct iovec* iov, std::size_t max_iov) const;

  /// Retires `n` sent bytes from the front: whole chunks pop in O(1), a
  /// partial remainder advances the front offset. Returns the total size
  /// of the chunks that fully retired (each chunk's bytes are counted
  /// exactly once, on the call that sends its last byte).
  /// Precondition: n <= bytes().
  std::size_t consume(std::size_t n);

  /// Drops every chunk; the ring keeps its storage.
  void clear();

  /// Front chunk, for tests. Precondition: !empty().
  const OutChunk& front() const { return ring_[head_]; }

 private:
  /// Ring slot of the `i`-th queued chunk (0 = front).
  std::size_t at(std::size_t i) const noexcept {
    return (head_ + i) & (capacity_ - 1);
  }

  std::unique_ptr<OutChunk[]> ring_;  ///< capacity_ slots, a power of two
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   ///< slot of the front chunk
  std::size_t count_ = 0;  ///< queued chunks
  std::size_t bytes_ = 0;
};

/// Outcome of one flush_queue() drain attempt. Productive calls and
/// would-block probes are ledgered separately: `syscalls` counts only the
/// sendmsg calls that moved bytes, so a syscalls-per-flushed-byte ratio is
/// honest even for a session that probes a full socket every slot, while
/// `eagain_calls` counts the attempts the kernel refused (EAGAIN, or the
/// cannot-happen zero return) — pure overhead the caller may want on its
/// own meter.
struct FlushResult {
  std::size_t bytes_sent = 0;     ///< summed sendmsg return values
  std::size_t bytes_retired = 0;  ///< bytes of chunks that fully retired
  std::size_t syscalls = 0;   ///< productive sendmsg calls (moved bytes, or
                              ///< failed fatally — never a would-block probe)
  std::size_t eagain_calls = 0;  ///< calls that moved nothing (EAGAIN/0)
  bool would_block = false;       ///< stopped on EAGAIN/EWOULDBLOCK
  int error = 0;                  ///< fatal errno (0 = none); queue intact
};

/// Drains `queue` into non-blocking socket `fd` with vectored sendmsg
/// (MSG_NOSIGNAL, kFlushBatch iovecs per call) until the queue empties,
/// the socket would block, or a fatal error. Never throws; the caller
/// decides what a fatal errno means for the session.
FlushResult flush_queue(int fd, OutQueue& queue);

}  // namespace tcsa::net
