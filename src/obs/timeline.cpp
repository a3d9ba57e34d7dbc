#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace tcsa::obs {
namespace {

std::uint64_t to_word(std::int64_t v) noexcept {
  return static_cast<std::uint64_t>(v);
}
std::int64_t to_signed(std::uint64_t w) noexcept {
  return static_cast<std::int64_t>(w);
}

// calloc's words are naturally aligned, which is all atomic_ref asks.
static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
              alignof(std::uint64_t));

}  // namespace

void SlotTimeline::Free::operator()(std::uint64_t* words) const noexcept {
  std::free(words);
}

SlotTimeline::SlotTimeline(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      words_(static_cast<std::uint64_t*>(
          std::calloc(capacity_, kCellWords * sizeof(std::uint64_t)))) {
  if (!words_) throw std::bad_alloc();
}

void SlotTimeline::record(const SlotRecord& rec) noexcept {
  const std::uint64_t ordinal = head_.load(std::memory_order_relaxed);
  const std::size_t cell = ordinal % capacity_;
  // Seqlock write: odd seq marks the cell dirty so a concurrent snapshot
  // drops it instead of mixing two slots' fields. The payload stores are
  // relaxed atomics — no torn words, no TSan report — and the even store
  // publishes them.
  const std::uint64_t seq = word(cell, 0).load(std::memory_order_relaxed);
  word(cell, 0).store(seq + 1, std::memory_order_release);
  word(cell, 1).store(rec.slot, std::memory_order_relaxed);
  word(cell, 2).store(to_word(rec.scheduled_us), std::memory_order_relaxed);
  word(cell, 3).store(to_word(rec.actual_us), std::memory_order_relaxed);
  word(cell, 4).store(rec.bytes_flushed, std::memory_order_relaxed);
  word(cell, 5).store(rec.sessions, std::memory_order_relaxed);
  word(cell, 6).store(rec.evictions, std::memory_order_relaxed);
  word(cell, 7).store(rec.generation, std::memory_order_relaxed);
  word(cell, 8).store(rec.aired_mask, std::memory_order_relaxed);
  word(cell, 0).store(seq + 2, std::memory_order_release);
  head_.store(ordinal + 1, std::memory_order_release);
}

std::vector<SlotRecord> SlotTimeline::snapshot(std::size_t max_records) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t available = std::min<std::uint64_t>(head, capacity_);
  if (max_records != 0)
    available = std::min<std::uint64_t>(available, max_records);
  std::vector<SlotRecord> out;
  out.reserve(static_cast<std::size_t>(available));
  for (std::uint64_t ordinal = head - available; ordinal < head; ++ordinal) {
    const std::size_t cell = ordinal % capacity_;
    SlotRecord rec;
    bool consistent = false;
    // Two attempts, then give up on the cell: if the writer keeps lapping
    // this ordinal the record is gone anyway — newer ones replaced it.
    for (int attempt = 0; attempt < 2 && !consistent; ++attempt) {
      const std::uint64_t before =
          word(cell, 0).load(std::memory_order_acquire);
      if (before % 2 != 0) continue;  // writer mid-flight
      rec.slot = word(cell, 1).load(std::memory_order_relaxed);
      rec.scheduled_us =
          to_signed(word(cell, 2).load(std::memory_order_relaxed));
      rec.actual_us = to_signed(word(cell, 3).load(std::memory_order_relaxed));
      rec.bytes_flushed = word(cell, 4).load(std::memory_order_relaxed);
      rec.sessions = word(cell, 5).load(std::memory_order_relaxed);
      rec.evictions = word(cell, 6).load(std::memory_order_relaxed);
      rec.generation = word(cell, 7).load(std::memory_order_relaxed);
      rec.aired_mask = word(cell, 8).load(std::memory_order_relaxed);
      const std::uint64_t after =
          word(cell, 0).load(std::memory_order_acquire);
      consistent = before == after;
    }
    if (consistent) out.push_back(rec);
  }
  return out;
}

std::string SlotTimeline::to_json(std::size_t max_records) const {
  const std::vector<SlotRecord> records = snapshot(max_records);
  std::string out = "{\n  \"capacity\": ";
  out += std::to_string(capacity_);
  out += ",\n  \"recorded\": ";
  out += std::to_string(recorded());
  out += ",\n  \"slots\": [";
  bool first = true;
  for (const SlotRecord& rec : records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"slot\": " + std::to_string(rec.slot);
    out += ", \"scheduled_us\": " + std::to_string(rec.scheduled_us);
    out += ", \"actual_us\": " + std::to_string(rec.actual_us);
    out += ", \"lag_us\": " + std::to_string(rec.lag_us());
    out += ", \"bytes_flushed\": " + std::to_string(rec.bytes_flushed);
    out += ", \"sessions\": " + std::to_string(rec.sessions);
    out += ", \"evictions\": " + std::to_string(rec.evictions);
    out += ", \"generation\": " + std::to_string(rec.generation);
    out += ", \"aired_mask\": " + std::to_string(rec.aired_mask);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace tcsa::obs
