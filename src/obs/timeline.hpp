// timeline.hpp — fixed-size lock-free ring of per-slot airing records.
//
// Loop 0's airing path is the sole writer: every aired slot appends one
// SlotRecord (scheduled vs actual air time, bytes flushed, live sessions,
// evictions, program generation, per-channel aired mask). The admin
// endpoint's /slots handler — and any other thread — can snapshot the ring
// at any moment without pausing airing: each cell is a seqlock (odd seq =
// mid-write) whose payload fields are themselves atomics, so a torn read is
// impossible and TSan sees no race; an inconsistent cell is simply dropped.
//
// The ring holds the last `capacity` slots. That is deliberate: jitter
// forensics needs the recent past at full per-slot resolution, while the
// long-run aggregates already live in the metrics registry's histograms.
//
// A cell is four 64-bit words (32 B). The slot is not stored: slots are
// recorded in order from 0, so a record's slot is its ordinal. Nor is the
// scheduled time: it is slot × slot_us, the drift-free slot clock's
// deadline, and the actual time is that plus the stored lag.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tcsa::obs {

/// One aired slot, as observed by the airing loop.
///
/// The ring keeps lag_us(), bytes_flushed, sessions, evictions and
/// generation in 32 bits each. Each saturates at UINT32_MAX (71 minutes of
/// lag, 4 GiB flushed in one slot) and never wraps; a negative lag reads
/// back as 0. aired_mask is kept whole.
struct SlotRecord {
  std::uint64_t slot = 0;          ///< program slot index
  std::int64_t scheduled_us = 0;   ///< deadline per the drift-free slot clock
  std::int64_t actual_us = 0;      ///< when air_slot actually ran
  std::uint64_t bytes_flushed = 0; ///< egress bytes retired since last slot
  std::uint64_t sessions = 0;      ///< live sessions across all loops
  std::uint64_t evictions = 0;     ///< slow-client evictions so far (total)
  std::uint64_t generation = 0;    ///< active program generation id
  std::uint64_t aired_mask = 0;    ///< bit c set = channel c aired a page

  /// Airing lag: how late the slot went on air (>= 0 in a healthy server).
  std::int64_t lag_us() const noexcept { return actual_us - scheduled_us; }

  bool operator==(const SlotRecord&) const = default;
};

class SlotTimeline {
 public:
  /// Bytes one record occupies in the ring.
  static constexpr std::size_t kCellBytes = 32;

  /// `capacity` = number of most-recent slots retained (at least 1);
  /// `slot_us` = the slot clock's slot length, so slot s was scheduled at
  /// s × slot_us.
  SlotTimeline(std::size_t capacity, std::uint32_t slot_us);

  /// Appends one record. Single writer (the airing loop); never blocks,
  /// never allocates. Precondition: `rec.slot == recorded()` and
  /// `rec.scheduled_us == rec.slot × slot_us` — the ring stores neither.
  void record(const SlotRecord& rec);

  /// Copies out up to `max_records` of the most recent records, oldest
  /// first (0 = all retained). Safe from any thread while the writer runs;
  /// cells overwritten mid-read are dropped rather than returned torn.
  std::vector<SlotRecord> snapshot(std::size_t max_records = 0) const;

  /// {"capacity": N, "recorded": M, "slots": [...]} for the /slots route.
  std::string to_json(std::size_t max_records = 0) const;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total records ever written (not clamped to capacity).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

 private:
  /// One slot. `seq_generation` holds the seqlock word in its low half and
  /// the generation in its high half; the other words pack two 32-bit
  /// fields low-then-high. A cell's seq is odd while the writer is inside
  /// it and 2 × (lap + 1) once lap `ordinal / capacity` is written, so a
  /// reader knows which ordinal a cell holds without storing the slot.
  struct Cell {
    std::uint64_t seq_generation;
    std::uint64_t lag_bytes;           ///< lag_us | bytes_flushed << 32
    std::uint64_t sessions_evictions;  ///< sessions | evictions << 32
    std::uint64_t aired_mask;
  };
  static_assert(sizeof(Cell) == kCellBytes, "a slot record is 32 bytes");

  /// The cells are one anonymous mapping: a cell only has to start with an
  /// even seq, which zero is, and readers never look past head_, so no cell
  /// is written before its first slot — the ring's pages fault in as the
  /// airing loop reaches them instead of all at start-up.
  struct Unmap {
    std::size_t bytes;
    void operator()(Cell* cells) const noexcept;
  };

  std::size_t capacity_;                ///< cells, fixed, >= 1
  std::uint64_t slot_us_;
  std::unique_ptr<Cell[], Unmap> cells_;
  std::atomic<std::uint64_t> head_{0};  ///< next record ordinal = next slot
};

}  // namespace tcsa::obs
