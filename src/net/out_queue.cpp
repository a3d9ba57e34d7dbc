#include "net/out_queue.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "util/contracts.hpp"

namespace tcsa::net {

namespace {

/// Chunks in a ring's first allocation: a session keeping up with the slot
/// clock holds a frame or two, a backlogged one doubles from here.
constexpr std::size_t kInitialChunks = 16;

}  // namespace

OutQueue::OutQueue(OutQueue&& other) noexcept
    : ring_(std::move(other.ring_)),
      capacity_(std::exchange(other.capacity_, 0)),
      head_(std::exchange(other.head_, 0)),
      count_(std::exchange(other.count_, 0)),
      bytes_(std::exchange(other.bytes_, 0)) {}

OutQueue& OutQueue::operator=(OutQueue&& other) noexcept {
  ring_ = std::move(other.ring_);
  capacity_ = std::exchange(other.capacity_, 0);
  head_ = std::exchange(other.head_, 0);
  count_ = std::exchange(other.count_, 0);
  bytes_ = std::exchange(other.bytes_, 0);
  return *this;
}

void OutQueue::push(SharedBuf buf) {
  if (buf.empty()) return;
  if (count_ == capacity_) {
    const std::size_t grown = capacity_ == 0 ? kInitialChunks : 2 * capacity_;
    auto ring = std::make_unique<OutChunk[]>(grown);
    for (std::size_t i = 0; i < count_; ++i) ring[i] = std::move(ring_[at(i)]);
    ring_ = std::move(ring);
    capacity_ = grown;
    head_ = 0;
  }
  bytes_ += buf.size();
  ring_[at(count_)] = OutChunk{std::move(buf), 0};
  ++count_;
}

std::size_t OutQueue::gather(struct iovec* iov, std::size_t max_iov) const {
  const std::size_t count = std::min(count_, max_iov);
  for (std::size_t i = 0; i < count; ++i) {
    const OutChunk& chunk = ring_[at(i)];
    iov[i].iov_base = const_cast<char*>(chunk.buf.data() + chunk.offset);
    iov[i].iov_len = chunk.buf.size() - chunk.offset;
  }
  return count;
}

std::size_t OutQueue::consume(std::size_t n) {
  TCSA_REQUIRE(n <= bytes_, "OutQueue::consume: more bytes than queued");
  bytes_ -= n;
  std::size_t retired = 0;
  while (n > 0) {
    OutChunk& front = ring_[head_];
    const std::size_t remaining = front.buf.size() - front.offset;
    if (n < remaining) {
      front.offset += n;
      break;
    }
    n -= remaining;
    retired += front.buf.size();
    front = OutChunk{};  // drops the buffer's reference now
    head_ = at(1);
    --count_;
  }
  return retired;
}

void OutQueue::clear() {
  for (std::size_t i = 0; i < count_; ++i) ring_[at(i)] = OutChunk{};
  head_ = 0;
  count_ = 0;
  bytes_ = 0;
}

FlushResult flush_queue(int fd, OutQueue& queue) {
  FlushResult result;
  iovec iov[kFlushBatch];
  while (!queue.empty()) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = queue.gather(iov, kFlushBatch);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      ++result.syscalls;
      result.bytes_sent += static_cast<std::size_t>(n);
      result.bytes_retired += queue.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // cannot happen for a nonempty iovec; treat as stalled
      ++result.eagain_calls;
      result.would_block = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++result.eagain_calls;
      result.would_block = true;
      break;
    }
    ++result.syscalls;  // a fatal errno still cost a productive-path call
    result.error = errno;
    break;
  }
  return result;
}

}  // namespace tcsa::net
