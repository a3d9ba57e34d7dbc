// uring_flush.hpp — batched egress through io_uring, one syscall per fleet.
//
// The sendmsg flush path (out_queue.hpp) costs one syscall per dirty
// session per slot: with S subscribed sessions the airing loop crosses the
// kernel boundary S times to move bytes that were already gathered into
// iovecs. io_uring collapses that to one crossing — the loop stages one
// IORING_OP_SENDMSG SQE per dirty session into a shared-memory submission
// ring and a single io_uring_enter(2) both submits the whole batch and
// (IORING_ENTER_GETEVENTS) waits for its completions. Every target socket
// is O_NONBLOCK and every SQE carries MSG_DONTWAIT, so the kernel issues
// each send inline during that one enter and posts a CQE synchronously —
// a socket with a full buffer yields -EAGAIN in its CQE instead of
// punting the op to a kernel worker. Completions therefore arrive before
// submit_and_wait() returns; the caller waits out any op still in flight
// before its batch ends, so nothing is ever left to harvest later.
//
// This is deliberately liburing-free: the container toolchain has the
// kernel UAPI header (<linux/io_uring.h>) but no library, so the ring is
// set up with raw syscalls and the SQ/CQ barriers are spelled out here
// (acquire on the ring index the kernel writes, release on the one we
// write — the same contract liburing's smp_load_acquire/store_release
// macros implement).
//
// Fallback (DESIGN.md §7): supported() probes io_uring_setup(2) once
// (ENOSYS on old kernels, EPERM in locked-down sandboxes) and honors
// TCSA_URING_FORCE_ENOSYS=1 so CI can force the fallback; any per-ring
// construction failure just leaves the server on the classic flush_queue()
// path. Callers never #if on the backend — they ask supported() and fall
// back.
#pragma once

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.hpp"

namespace tcsa::net {

class UringFlusher {
 public:
  /// One harvested CQE: the user_data the SQE carried and the raw sendmsg
  /// result (bytes sent, or a negated errno such as -EAGAIN).
  struct Completion {
    std::uint64_t user_data = 0;
    std::int32_t res = 0;
  };

  /// Uncached runtime probe: can this process set up a ring right now?
  /// Returns false when TCSA_URING_FORCE_ENOSYS=1 is in the environment or
  /// when io_uring_setup(2) fails (ENOSYS/EPERM/...).
  static bool probe();

  /// Cached probe — the kernel's verdict is read once per process; the
  /// TCSA_URING_FORCE_ENOSYS override is consulted on every call.
  static bool supported();

  /// Builds a ring with at least `entries` submission slots (the kernel
  /// rounds up to a power of two).
  /// Throws std::runtime_error when the kernel refuses; callers that
  /// probed supported() first should treat that as "fall back", not fatal.
  explicit UringFlusher(unsigned entries);
  ~UringFlusher();
  UringFlusher(const UringFlusher&) = delete;
  UringFlusher& operator=(const UringFlusher&) = delete;

  /// Submission slots actually granted (>= the requested entries).
  unsigned capacity() const noexcept { return sq_entries_; }

  /// Stages one sendmsg SQE (MSG_NOSIGNAL | MSG_DONTWAIT). The msghdr and
  /// the iovec array it points at must stay alive until the matching
  /// completion is harvested. Returns false when the SQ is full — submit,
  /// harvest, and retry.
  bool push_sendmsg(int fd, const struct msghdr* msg,
                    std::uint64_t user_data);

  /// Submits every staged SQE with one io_uring_enter and, when
  /// `wait_for` > 0, waits in the same syscall until that many CQEs are
  /// available. Returns the number of enter syscalls issued (1 unless the
  /// kernel consumed a partial batch). Throws std::runtime_error on a
  /// fatal enter errno — per-op errors come back through CQE results.
  std::size_t submit_and_wait(unsigned wait_for);

  /// Moves every available CQE into `out` (appending); returns the count.
  std::size_t harvest(std::vector<Completion>& out);

  /// SQEs staged but not yet submitted.
  unsigned staged() const noexcept { return staged_; }

  /// SQEs submitted whose CQE has not been harvested yet.
  unsigned inflight() const noexcept { return inflight_; }

 private:
  void unmap() noexcept;

  Fd ring_fd_;
  // Submission side: one mapping for the ring indices + index array, one
  // for the SQE array itself.
  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* sqe_mem_ = nullptr;
  std::size_t sqe_bytes_ = 0;
  std::uint32_t* sq_head_ = nullptr;   // kernel-written consumer index
  std::uint32_t* sq_tail_ = nullptr;   // our producer index (release)
  std::uint32_t* sq_array_ = nullptr;  // indirection into the SQE array
  std::uint32_t sq_mask_ = 0;
  // Completion side (may alias sq_ring_ under IORING_FEAT_SINGLE_MMAP).
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  std::uint32_t* cq_head_ = nullptr;   // our consumer index (release)
  std::uint32_t* cq_tail_ = nullptr;   // kernel-written producer (acquire)
  std::uint32_t cq_mask_ = 0;
  void* cqes_ = nullptr;
  unsigned sq_entries_ = 0;
  unsigned staged_ = 0;
  unsigned inflight_ = 0;
};

}  // namespace tcsa::net
