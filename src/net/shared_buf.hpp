// shared_buf.hpp — refcounted immutable byte buffer for zero-copy fan-out.
//
// The broadcast model's whole economy is that one transmission serves every
// listener; the server's egress path must keep that shape in memory too.
// A SharedBuf wraps one run of encoded bytes behind a shared refcount so N
// subscribed sessions queue the *same* bytes — enqueueing is a pointer
// copy, and the buffer lives exactly as long as the slowest session still
// draining it (including across a hot program swap). The airing plane
// encodes each slot's page frames into one such buffer, which a session
// subscribed to every aired channel queues whole (server/loop_shard.hpp).
//
// The bytes never change once wrapped: nothing writes through a SharedBuf,
// so any thread may read a buffer another loop still has queued.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace tcsa::net {

class SharedBuf {
 public:
  SharedBuf() = default;

  /// Takes ownership of `bytes` (one move, zero copies for an rvalue) and
  /// shares them behind a refcount from then on.
  static SharedBuf wrap(std::string bytes) {
    SharedBuf buf;
    buf.bytes_ = std::make_shared<std::string>(std::move(bytes));
    return buf;
  }

  const char* data() const noexcept { return bytes_ ? bytes_->data() : ""; }
  std::size_t size() const noexcept { return bytes_ ? bytes_->size() : 0; }
  bool empty() const noexcept { return size() == 0; }
  std::string_view view() const noexcept { return {data(), size()}; }

  /// True when this handle owns bytes (possibly empty ones).
  explicit operator bool() const noexcept { return bytes_ != nullptr; }

  /// Number of handles sharing the bytes (0 for a null handle).
  long use_count() const noexcept { return bytes_.use_count(); }

  /// True when this is the only handle.
  bool unique() const noexcept { return bytes_.use_count() == 1; }

 private:
  std::shared_ptr<std::string> bytes_;
};

}  // namespace tcsa::net
