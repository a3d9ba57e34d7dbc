// timeline.hpp — fixed-size lock-free ring of per-slot airing records.
//
// Loop 0's airing path is the sole writer: every aired slot appends one
// SlotRecord (scheduled vs actual air time, bytes flushed, live sessions,
// evictions, program generation, per-channel aired mask). The admin
// endpoint's /slots handler — and any other thread — can snapshot the ring
// at any moment without pausing airing: each cell is a seqlock (odd seq =
// mid-write) whose payload fields are themselves relaxed atomics, so a torn
// read is impossible and TSan sees no race; an inconsistent cell is simply
// retried or dropped.
//
// The ring holds the last `capacity` slots. That is deliberate: jitter
// forensics needs the recent past at full per-slot resolution, while the
// long-run aggregates already live in the metrics registry's histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tcsa::obs {

/// One aired slot, as observed by the airing loop.
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
};

class SlotTimeline {
 public:
  /// `capacity` = number of most-recent slots retained; at least 1.
  explicit SlotTimeline(std::size_t capacity);

  /// Appends one record. Single writer (the airing loop); never blocks,
  /// never allocates.
  void record(const SlotRecord& rec) noexcept;

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
  // One cell per slot: a seq word (odd while the writer is inside) and 8
  // payload words mirroring SlotRecord's fields.
  static constexpr std::size_t kWords = 8;
  static constexpr std::size_t kCellWords = 1 + kWords;
  struct Free {
    void operator()(std::uint64_t* words) const noexcept;
  };

  /// Word `i` of cell `cell` (0 = seq, 1 + k = payload word k), accessed
  /// atomically. The storage is plain calloc'd words: a cell only has to
  /// start with an even seq, which zero is, and readers never look past
  /// head_, so no cell is written before its first slot — the ring's pages
  /// fault in as the airing loop reaches them instead of all at start-up.
  std::atomic_ref<std::uint64_t> word(std::size_t cell,
                                      std::size_t i) const noexcept {
    return std::atomic_ref<std::uint64_t>(words_[cell * kCellWords + i]);
  }

  std::size_t capacity_;                          ///< cells, fixed, >= 1
  std::unique_ptr<std::uint64_t[], Free> words_;  ///< capacity_ cells
  std::atomic<std::uint64_t> head_{0};            ///< next record ordinal
};

}  // namespace tcsa::obs
