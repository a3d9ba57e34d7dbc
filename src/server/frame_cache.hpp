// frame_cache.hpp — the airing plane's per-generation kPage frame cache.
//
// The program is periodic, so a (channel, column) page frame's bytes are
// invariant within a generation except the slot word: each cycle that word
// is patched in place, and the frame is re-encoded only on first airing or
// while someone may still read last cycle's buffer. A new generation resets
// every cell (cached bodies bake in the generation id and placement); a
// buffer a slow session still has queued lives on through its refcount.
//
// With several loops a bare use_count()==1 cannot be trusted while another
// loop might still hold a reference, so a cell is patch-eligible only once
// the caller's epoch floor has passed its last airing (every worker
// release-published its token drop for that slot; the airing loop
// acquire-reads the floor), and the refcount check then rules out the
// session queues a floor cannot see. Those queue references are byte-safe:
// worker user space never reads frame bytes (sendmsg copies them in the
// kernel), and SharedBuf::patch_u64 fences after observing sole ownership.
//
// Not thread-safe: the airing loop owns the cache.
#pragma once

#include <cstdint>
#include <vector>

#include "model/program.hpp"
#include "net/shared_buf.hpp"

namespace tcsa {

class FrameCache {
 public:
  /// The kPage frame for cell (ch, column) of `generation`'s `program`,
  /// stamped with `slot`: a slot-word patch of the cached bytes when
  /// `floor` has passed the cell's last airing AND the cache is the sole
  /// owner, a fresh encode otherwise (counted in frames_encoded; patches
  /// in frame_cache_hits). Returns a handle sharing the cell. A generation
  /// other than the last call's resets the cache first. Precondition: the
  /// cell holds a page.
  net::SharedBuf frame(std::uint32_t generation,
                       const BroadcastProgram& program, SlotCount ch,
                       SlotCount column, std::uint64_t slot,
                       std::uint64_t floor);

 private:
  std::vector<net::SharedBuf> cells_;       // channel * cycle + column
  std::vector<std::uint64_t> aired_slot_;   // last slot each cell aired
  std::uint32_t generation_ = 0;
};

}  // namespace tcsa
