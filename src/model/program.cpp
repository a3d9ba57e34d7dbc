#include "model/program.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/text.hpp"

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

  std::string text;
  for (SlotCount ch = 0; ch < channels_; ++ch) {
    str_append(text, "ch", ch, " |");
    for (SlotCount s = 0; s < cycle_length_; ++s) {
      const PageId p = at(ch, s);
      text += ' ';
      if (p == kNoPage) {
        str_append(text, pad(width, '.'));
      } else {
        str_append(text, pad(width, p));
      }
    }
    text += '\n';
  }
  return text;
}

}  // namespace tcsa
