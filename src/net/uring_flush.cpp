#include "net/uring_flush.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "util/contracts.hpp"

namespace tcsa::net {

namespace {

bool force_unsupported_env() {
  const char* force = std::getenv("TCSA_URING_FORCE_ENOSYS");
  return force != nullptr && force[0] == '1';
}

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("UringFlusher: ") + what + ": " +
                           std::strerror(errno));
}

// The ring indices are plain uint32 words in kernel-shared memory; the
// ordering contract is acquire on the side the kernel writes and release
// on the side we write (what liburing calls smp_load_acquire /
// smp_store_release).
std::uint32_t ring_load_acquire(const std::uint32_t* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

void ring_store_release(std::uint32_t* p, std::uint32_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

}  // namespace

bool UringFlusher::probe() {
  if (force_unsupported_env()) return false;
  io_uring_params params{};
  const int fd = sys_io_uring_setup(4, &params);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

bool UringFlusher::supported() {
  // The kernel's verdict cannot change within a process lifetime, but the
  // env override is consulted every call so a test (or a child that
  // inherited the variable late) can force the fallback at any point.
  if (force_unsupported_env()) return false;
  static const bool ok = probe();
  return ok;
}

UringFlusher::UringFlusher(unsigned entries) {
  TCSA_REQUIRE(entries >= 1 && entries <= 4096,
               "UringFlusher: entries must be in [1, 4096]");
  if (force_unsupported_env()) {
    errno = ENOSYS;
    throw_errno("io_uring_setup (forced by TCSA_URING_FORCE_ENOSYS)");
  }
  io_uring_params params{};
  ring_fd_ = Fd(sys_io_uring_setup(entries, &params));
  if (!ring_fd_.valid()) throw_errno("io_uring_setup");
  sq_entries_ = params.sq_entries;

  sq_ring_bytes_ =
      params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
  cq_ring_bytes_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap && cq_ring_bytes_ > sq_ring_bytes_)
    sq_ring_bytes_ = cq_ring_bytes_;
  // A failed mapping unmaps the earlier ones: a throwing constructor runs
  // no destructor.
  const auto map = [this](std::size_t bytes, off_t offset, const char* what) {
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, ring_fd_.get(), offset);
    if (mem != MAP_FAILED) return mem;
    const int err = errno;
    unmap();
    errno = err;
    throw_errno(what);
  };
  sq_ring_ = map(sq_ring_bytes_, IORING_OFF_SQ_RING, "mmap(SQ ring)");
  cq_ring_ = single_mmap ? sq_ring_
                         : map(cq_ring_bytes_, IORING_OFF_CQ_RING,
                               "mmap(CQ ring)");
  if (single_mmap) cq_ring_bytes_ = 0;  // owned by the SQ mapping
  sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  sqe_mem_ = map(sqe_bytes_, IORING_OFF_SQES, "mmap(SQE array)");

  auto* sq_base = static_cast<char*>(sq_ring_);
  sq_head_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.head);
  sq_tail_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.tail);
  sq_mask_ = *reinterpret_cast<std::uint32_t*>(sq_base +
                                               params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<std::uint32_t*>(sq_base + params.sq_off.array);
  auto* cq_base = static_cast<char*>(cq_ring_);
  cq_head_ = reinterpret_cast<std::uint32_t*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<std::uint32_t*>(cq_base + params.cq_off.tail);
  cq_mask_ = *reinterpret_cast<std::uint32_t*>(cq_base +
                                               params.cq_off.ring_mask);
  cqes_ = cq_base + params.cq_off.cqes;
}

UringFlusher::~UringFlusher() { unmap(); }

void UringFlusher::unmap() noexcept {
  if (sqe_mem_ != nullptr) ::munmap(sqe_mem_, sqe_bytes_);
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_)
    ::munmap(cq_ring_, cq_ring_bytes_);
  if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
  sqe_mem_ = cq_ring_ = sq_ring_ = nullptr;
}

bool UringFlusher::push_sendmsg(int fd, const struct msghdr* msg,
                                std::uint64_t user_data) {
  const std::uint32_t head = ring_load_acquire(sq_head_);
  const std::uint32_t tail = *sq_tail_;  // we are the only producer
  if (tail - head == sq_entries_) return false;  // SQ full
  const std::uint32_t idx = tail & sq_mask_;
  auto* sqe = static_cast<io_uring_sqe*>(sqe_mem_) + idx;
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(msg);
  sqe->len = 1;
  // MSG_DONTWAIT on top of the socket's own O_NONBLOCK: the kernel issues
  // the send inline during io_uring_enter and posts -EAGAIN to the CQE
  // rather than punting the op to a worker thread — completions for the
  // whole batch are available when the one enter syscall returns.
  sqe->msg_flags = MSG_NOSIGNAL | MSG_DONTWAIT;
  sqe->user_data = user_data;
  sq_array_[idx] = idx;
  ring_store_release(sq_tail_, tail + 1);
  ++staged_;
  return true;
}

std::size_t UringFlusher::submit_and_wait(unsigned wait_for) {
  // Submission and wait share ONE enter: GETEVENTS with min_complete rides
  // the same syscall that hands the kernel the batch — that is the whole
  // syscalls-saved ledger. The loop only repeats on EINTR or the (rare)
  // partial submit; a repeat with the wait already satisfied returns
  // immediately because the CQEs are sitting in the ring.
  std::size_t enters = 0;
  unsigned to_submit = staged_;
  const unsigned flags = wait_for > 0 ? IORING_ENTER_GETEVENTS : 0;
  while (to_submit > 0 || (flags != 0 && enters == 0)) {
    const int n =
        sys_io_uring_enter(ring_fd_.get(), to_submit, wait_for, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("io_uring_enter");
    }
    ++enters;
    const unsigned consumed = static_cast<unsigned>(n);
    TCSA_REQUIRE(consumed <= to_submit,
                 "UringFlusher: kernel consumed more SQEs than submitted");
    to_submit -= consumed;
    inflight_ += consumed;
    staged_ -= consumed;
  }
  return enters;
}

std::size_t UringFlusher::harvest(std::vector<Completion>& out) {
  std::uint32_t head = *cq_head_;  // we are the only consumer
  const std::uint32_t tail = ring_load_acquire(cq_tail_);
  std::size_t count = 0;
  while (head != tail) {
    const auto* cqe =
        static_cast<const io_uring_cqe*>(cqes_) + (head & cq_mask_);
    out.push_back(Completion{cqe->user_data, cqe->res});
    ++head;
    ++count;
  }
  ring_store_release(cq_head_, head);
  TCSA_REQUIRE(count <= inflight_,
               "UringFlusher: harvested more CQEs than in flight");
  inflight_ -= static_cast<unsigned>(count);
  return count;
}

}  // namespace tcsa::net
