#include "model/program.hpp"

#include <iomanip>
#include <sstream>

#include "util/contracts.hpp"

namespace tcsa {

BroadcastProgram::BroadcastProgram(SlotCount channels, SlotCount cycle_length)
    : channels_(channels), cycle_length_(cycle_length) {
  TCSA_REQUIRE(channels >= 1, "BroadcastProgram: need at least one channel");
  TCSA_REQUIRE(cycle_length >= 1, "BroadcastProgram: cycle must be >= 1 slot");
  grid_.assign(static_cast<std::size_t>(channels * cycle_length), kNoPage);
}

void BroadcastProgram::place(SlotCount channel, SlotCount slot, PageId page) {
  TCSA_REQUIRE(page != kNoPage, "BroadcastProgram: cannot place kNoPage");
  PageId& cell = grid_[index(channel, slot)];
  TCSA_ASSERT(cell == kNoPage,
              "BroadcastProgram: scheduler attempted to overwrite a slot");
  cell = page;
  ++occupied_;
}

void BroadcastProgram::clear(SlotCount channel, SlotCount slot) {
  PageId& cell = grid_[index(channel, slot)];
  TCSA_REQUIRE(cell != kNoPage, "BroadcastProgram: clearing an empty slot");
  cell = kNoPage;
  --occupied_;
}

SlotCount BroadcastProgram::column_load(SlotCount slot) const {
  SlotCount load = 0;
  for (SlotCount ch = 0; ch < channels_; ++ch)
    if (!empty_at(ch, slot)) ++load;
  return load;
}

std::string BroadcastProgram::render() const {
  // Width of the largest page id (or 1 for '.').
  std::size_t width = 1;
  for (PageId p : grid_)
    if (p != kNoPage) width = std::max(width, std::to_string(p).size());

  std::ostringstream os;
  for (SlotCount ch = 0; ch < channels_; ++ch) {
    os << "ch" << ch << " |";
    for (SlotCount s = 0; s < cycle_length_; ++s) {
      const PageId p = at(ch, s);
      os << ' ' << std::setw(static_cast<int>(width));
      if (p == kNoPage) {
        os << '.';
      } else {
        os << p;
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace tcsa
