// program.hpp — the multi-channel broadcast program B (Section 3.2).
//
// B is an N x T grid of page ids: row = channel, column = time slot. The
// program repeats forever with period T (the major cycle): slot s of cycle k
// carries the same page as slot s of cycle 0. Schedulers fill the grid; the
// simulator reads it through AppearanceIndex, and the validator and the
// swap-seam planner in one time-ordered sweep (for_each_in_time_order).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "util/contracts.hpp"

namespace tcsa {

/// Dense slot grid with occupancy bookkeeping.
class BroadcastProgram {
 public:
  /// Creates an empty program with `channels` rows and `cycle_length` slots.
  BroadcastProgram(SlotCount channels, SlotCount cycle_length);

  SlotCount channels() const noexcept { return channels_; }
  SlotCount cycle_length() const noexcept { return cycle_length_; }

  /// Page at (channel, slot); kNoPage when empty. Inline: SUSC scans it
  /// cell by cell, and an out-of-line call made that scan layout-sensitive.
  PageId at(SlotCount channel, SlotCount slot) const {
    return grid_[index(channel, slot)];
  }

  /// True when (channel, slot) holds no page.
  bool empty_at(SlotCount channel, SlotCount slot) const {
    return at(channel, slot) == kNoPage;
  }

  /// Places `page` at (channel, slot). Precondition: the slot is empty
  /// (schedulers never overwrite; an overwrite is a scheduling bug).
  void place(SlotCount channel, SlotCount slot, PageId page);

  /// Removes the page at (channel, slot). Precondition: slot is occupied.
  void clear(SlotCount channel, SlotCount slot);

  /// Number of occupied slots.
  SlotCount occupied() const noexcept { return occupied_; }

  /// Total slot capacity N * T.
  SlotCount capacity() const noexcept { return channels_ * cycle_length_; }

  /// Count of occupied slots in one column (time slot across all channels).
  SlotCount column_load(SlotCount slot) const;

  /// Visits every occupied cell in time order — columns ascending, channels
  /// ascending within a column — as visit(slot, page). The grid is
  /// row-major, so the sweep copies one cache line of every row at a time
  /// into a column-major tile (channels x 16 page ids) and visits the tile:
  /// each grid line is read once instead of once per column.
  template <class Visit>
  void for_each_in_time_order(Visit&& visit) const;

  /// ASCII rendering (channels as rows), e.g. for the Fig. 2 example:
  /// "ch0 |  1  2  3  1 ...". Empty slots print as '.'.
  std::string render() const;

  friend bool operator==(const BroadcastProgram&, const BroadcastProgram&) =
      default;

 private:
  std::size_t index(SlotCount channel, SlotCount slot) const {
    TCSA_REQUIRE(channel >= 0 && channel < channels_,
                 "BroadcastProgram: channel out of range");
    TCSA_REQUIRE(slot >= 0 && slot < cycle_length_,
                 "BroadcastProgram: slot out of range");
    return static_cast<std::size_t>(channel * cycle_length_ + slot);
  }

  SlotCount channels_;
  SlotCount cycle_length_;
  SlotCount occupied_ = 0;
  std::vector<PageId> grid_;  // row-major: channel * T + slot
};

template <class Visit>
void BroadcastProgram::for_each_in_time_order(Visit&& visit) const {
  constexpr SlotCount kTile = 64 / sizeof(PageId);
  const auto rows = static_cast<std::size_t>(channels_);
  std::vector<PageId> tile(rows * static_cast<std::size_t>(kTile));
  for (SlotCount first = 0; first < cycle_length_; first += kTile) {
    const auto width =
        static_cast<std::size_t>(std::min(kTile, cycle_length_ - first));
    for (std::size_t ch = 0; ch < rows; ++ch) {
      const PageId* line = grid_.data() +
                           ch * static_cast<std::size_t>(cycle_length_) +
                           static_cast<std::size_t>(first);
      for (std::size_t j = 0; j < width; ++j) tile[j * rows + ch] = line[j];
    }
    for (std::size_t j = 0; j < width; ++j) {
      const PageId* column = tile.data() + j * rows;
      const SlotCount slot = first + static_cast<SlotCount>(j);
      for (std::size_t ch = 0; ch < rows; ++ch)
        if (column[ch] != kNoPage) visit(slot, column[ch]);
    }
  }
}

}  // namespace tcsa
