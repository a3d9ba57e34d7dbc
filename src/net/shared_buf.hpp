// shared_buf.hpp — refcounted immutable byte buffer for zero-copy fan-out.
//
// The broadcast model's whole economy is that one transmission serves every
// listener; the server's egress path must keep that shape in memory too.
// A SharedBuf wraps one encoded frame (or any byte run) behind a shared
// refcount so N subscribed sessions queue the *same* bytes — enqueueing is
// a pointer copy, and the buffer lives exactly as long as the slowest
// session still draining it (including across a hot program swap, where
// the server's frame cache has already moved on to the next generation).
//
// The bytes are immutable while shared. The one escape hatch is
// patch_u64(), which rewrites a word in place ONLY when the caller holds
// the sole reference — the periodic-program frame cache uses it to stamp
// the slot number into last cycle's otherwise-identical frame instead of
// re-encoding it (see server/frame_cache.hpp). A buffer some session still
// has queued refuses the patch and the caller re-encodes, so queued bytes
// can never change underneath a socket.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// True when this is the only handle — the precondition for patching.
  bool unique() const noexcept { return bytes_.use_count() == 1; }

  /// Rewrites 8 bytes at `offset` as little-endian `value`, but only when
  /// this handle is the sole owner; returns false (bytes untouched) when
  /// the buffer is shared or null. Precondition: offset + 8 <= size().
  bool patch_u64(std::size_t offset, std::uint64_t value);

 private:
  std::shared_ptr<std::string> bytes_;
};

}  // namespace tcsa::net
