#include "obs/timeline.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>

#include "util/contracts.hpp"

namespace tcsa::obs {
namespace {

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

std::uint64_t saturate(std::uint64_t v) noexcept { return std::min(v, kMax32); }

std::uint64_t pack(std::uint64_t low, std::uint64_t high) noexcept {
  return saturate(low) | saturate(high) << 32;
}
std::uint64_t low_half(std::uint64_t w) noexcept { return w & kMax32; }
std::uint64_t high_half(std::uint64_t w) noexcept { return w >> 32; }

/// Even seq of a cell once lap `lap` of the ring has been written to it.
std::uint64_t written_seq(std::uint64_t lap) noexcept {
  return low_half(2 * (lap + 1));
}

std::atomic_ref<std::uint64_t> ref(std::uint64_t& word) noexcept {
  return std::atomic_ref<std::uint64_t>(word);
}

// mmap's cells are page-aligned, and a cell's words naturally aligned after
// that, which is all atomic_ref asks.
static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
              alignof(std::uint64_t));

}  // namespace

void SlotTimeline::Unmap::operator()(Cell* cells) const noexcept {
  ::munmap(cells, bytes);
}

SlotTimeline::SlotTimeline(std::size_t capacity, std::uint32_t slot_us)
    : capacity_(std::max<std::size_t>(capacity, 1)), slot_us_(slot_us) {
  const std::size_t bytes = capacity_ * sizeof(Cell);
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  cells_ = std::unique_ptr<Cell[], Unmap>(static_cast<Cell*>(mem),
                                          Unmap{bytes});
}

void SlotTimeline::record(const SlotRecord& rec) {
  const std::uint64_t ordinal = head_.load(std::memory_order_relaxed);
  TCSA_REQUIRE(rec.slot == ordinal &&
                   rec.scheduled_us ==
                       static_cast<std::int64_t>(ordinal * slot_us_),
               "SlotTimeline::record: slots are recorded in order from 0, "
               "each scheduled at slot * slot_us");
  Cell& cell = cells_[ordinal % capacity_];
  const std::uint64_t seq = written_seq(ordinal / capacity_);
  const std::uint64_t lag =
      rec.actual_us > rec.scheduled_us
          ? static_cast<std::uint64_t>(rec.actual_us - rec.scheduled_us)
          : 0;
  // Seqlock write: odd seq marks the cell dirty so a concurrent snapshot
  // drops it instead of mixing two slots' fields. The payload stores are
  // release atomics — no torn words, no TSan report, and none can be seen
  // before the odd seq — and the even store publishes them.
  ref(cell.seq_generation).store(seq - 1, std::memory_order_relaxed);
  ref(cell.lag_bytes).store(pack(lag, rec.bytes_flushed),
                            std::memory_order_release);
  ref(cell.sessions_evictions).store(pack(rec.sessions, rec.evictions),
                                     std::memory_order_release);
  ref(cell.aired_mask).store(rec.aired_mask, std::memory_order_release);
  ref(cell.seq_generation).store(pack(seq, rec.generation),
                                 std::memory_order_release);
  head_.store(ordinal + 1, std::memory_order_release);
}

std::vector<SlotRecord> SlotTimeline::snapshot(std::size_t max_records) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t available = std::min<std::uint64_t>(head, capacity_);
  if (max_records != 0)
    available = std::min<std::uint64_t>(available, max_records);
  std::vector<SlotRecord> out;
  out.reserve(static_cast<std::size_t>(available));
  const std::uint64_t first = head - available;
  std::size_t index = static_cast<std::size_t>(first % capacity_);
  std::uint64_t lap = first / capacity_;
  for (std::uint64_t ordinal = first; ordinal < head; ++ordinal) {
    Cell& cell = cells_[index];
    const std::uint64_t seq = written_seq(lap);
    if (++index == capacity_) {
      index = 0;
      ++lap;
    }
    // The cell must still hold this ordinal's lap, before and after the
    // payload reads. The payload loads are acquire, so the second seq load
    // cannot move above them: a writer that began the next lap meanwhile is
    // seen, and the record — already gone from the ring — is dropped.
    const std::uint64_t before =
        ref(cell.seq_generation).load(std::memory_order_acquire);
    if (low_half(before) != seq) continue;
    const std::uint64_t lag_bytes =
        ref(cell.lag_bytes).load(std::memory_order_acquire);
    const std::uint64_t sessions_evictions =
        ref(cell.sessions_evictions).load(std::memory_order_acquire);
    const std::uint64_t aired_mask =
        ref(cell.aired_mask).load(std::memory_order_acquire);
    if (ref(cell.seq_generation).load(std::memory_order_relaxed) != before)
      continue;
    SlotRecord& rec = out.emplace_back();
    rec.slot = ordinal;
    rec.scheduled_us = static_cast<std::int64_t>(ordinal * slot_us_);
    rec.actual_us =
        rec.scheduled_us + static_cast<std::int64_t>(low_half(lag_bytes));
    rec.bytes_flushed = high_half(lag_bytes);
    rec.sessions = low_half(sessions_evictions);
    rec.evictions = high_half(sessions_evictions);
    rec.generation = high_half(before);
    rec.aired_mask = aired_mask;
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
