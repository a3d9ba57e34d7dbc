#include "net/shared_buf.hpp"

#include <atomic>

#include "util/contracts.hpp"

namespace tcsa::net {

bool SharedBuf::patch_u64(std::size_t offset, std::uint64_t value) {
  // use_count() == 1 is meaningful only when no other thread can gain or
  // drop a reference concurrently with the check. Single-loop serving gets
  // that for free (every handle lives on the one loop thread). Multi-loop
  // serving earns it with an epoch handshake: each worker publishes the
  // slot it finished delivering with a release store *after* dropping its
  // token references, and loop 0 patches a cached frame only when every
  // worker's acquire-read floor has passed the frame's last airing — so
  // any worker-held reference from that airing has provably been released
  // (see server/frame_cache.hpp).
  if (!bytes_ || bytes_.use_count() != 1) return false;
  // The count is read relaxed; if the value 1 we just observed was written
  // by another thread's release-decrement, this acquire fence upgrades the
  // observation to a synchronizes-with edge ([atomics.fences]/4) — the
  // bytes below are written strictly after the last foreign reference was
  // released.
  std::atomic_thread_fence(std::memory_order_acquire);
  TCSA_REQUIRE(offset + 8 <= bytes_->size(),
               "SharedBuf::patch_u64: patch window out of bounds");
  char* p = bytes_->data() + offset;
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  return true;
}

}  // namespace tcsa::net
