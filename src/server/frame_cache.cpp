#include "server/frame_cache.hpp"

#include "net/framing.hpp"
#include "server/server_metrics.hpp"

namespace tcsa {

net::SharedBuf FrameCache::frame(std::uint32_t generation,
                                 const BroadcastProgram& program,
                                 SlotCount ch, SlotCount column,
                                 std::uint64_t slot, std::uint64_t floor) {
  const SlotCount cycle = program.cycle_length();
  if (generation != generation_) {
    generation_ = generation;
    const std::size_t cells =
        static_cast<std::size_t>(program.channels()) * cycle;
    cells_.assign(cells, net::SharedBuf());
    aired_slot_.assign(cells, 0);
  }
  const std::size_t cell = static_cast<std::size_t>(ch) * cycle + column;
  net::SharedBuf& cached = cells_[cell];
  // Either check failing means one fresh encode — correctness never
  // depends on the cache hitting.
  if (floor > aired_slot_[cell] &&
      cached.patch_u64(net::kPageSlotOffset, slot)) {
    obs::counter_add(server_metrics().frame_cache_hits, 1);
  } else {
    cached = net::SharedBuf::wrap(net::encode(
        net::PageMsg{.slot = slot, .generation = generation,
                     .channel = static_cast<std::uint32_t>(ch),
                     .page = program.at(ch, column)}));
    obs::counter_add(server_metrics().frames_encoded, 1);
  }
  aired_slot_[cell] = slot;
  return cached;
}

}  // namespace tcsa
