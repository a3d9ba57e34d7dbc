// oracles.hpp — the naive reference implementations the optimised
// SUSC, validation, seam-planning, placement, simulator, histogram and
// slot-timeline paths are checked against, bit for bit. Test and benchmark code only: none of
// this ships in the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/placement.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "obs/log_histogram.hpp"
#include "obs/timeline.hpp"
#include "server/air_server.hpp"
#include "sim/broadcast_sim.hpp"

namespace tcsa {

/// The paper's SUSC with Algorithm 2 as written: every page rescans from
/// channel 0, column 0. schedule_susc must produce a cell-for-cell identical
/// program. O(n * N * t) worst case.
BroadcastProgram schedule_susc_reference(const Workload& workload,
                                         SlotCount channels);

/// The index-based validator: one AppearanceIndex over the program, then
/// each page's sorted completion times in turn. validate_program must
/// return an equal report, field for field (text and order included).
ValidityReport validate_program_reference(const BroadcastProgram& program,
                                          const Workload& workload);

/// The rotation scan: every rotation r of the next program in turn, one
/// AppearanceIndex::wait_after binary search per common page. plan_swap_seam
/// must return the same offset and seam_lateness. O(T * pages * log).
SwapPlan plan_swap_seam_reference(const Workload& current_workload,
                                  const BroadcastProgram& current_program,
                                  SlotCount current_offset,
                                  const Workload& next_workload,
                                  const BroadcastProgram& next_program);

/// The seed's naive double-scan placer: place_even_spread must produce a
/// bit-identical program. O(copies * t_major * channels) worst case.
PlacementResult place_even_spread_reference(const Workload& workload,
                                            std::span<const SlotCount> S,
                                            SlotCount channels);

/// The scalar simulator: one AppearanceIndex::wait_after binary search per
/// request, in request order. Semantically the definition of the
/// simulator; the batched simulate_requests must match it bit for bit, and
/// bench_micro_sim uses it as the baseline.
SimResult simulate_requests_reference(const AppearanceIndex& index,
                                      const Workload& workload,
                                      const std::vector<Request>& requests);

/// The dense LogHistogram: one counter per layout bucket (kBuckets, 43 KiB)
/// whatever the sample count, same bucket layout and nearest-rank rule.
/// obs::LogHistogram, which stores only its non-empty buckets, must agree
/// with it on count, extremes, buckets() and every quantile.
class LogHistogramReference {
 public:
  using Bucket = obs::LogHistogram::Bucket;

  LogHistogramReference();

  void record(double value);
  void merge(const LogHistogramReference& other);
  void merge_buckets(std::span<const Bucket> buckets, double min, double max);
  void subtract(const LogHistogramReference& base);

  std::vector<Bucket> buckets() const;
  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double quantile(double q) const;
  void quantiles(std::span<const double> qs, std::span<double> out) const;

  bool operator==(const LogHistogramReference&) const = default;

 private:
  std::vector<std::uint64_t> counts_;  ///< kBuckets, ascending by value
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The 72-byte-cell seqlock ring: every SlotRecord field in its own 64-bit
/// payload word beside the seq word, so nothing is derived and nothing
/// saturates. obs::SlotTimeline, which packs a record into 32 bytes, must
/// return equal snapshot() and to_json() output for records whose packed
/// fields fit in 32 bits.
class SlotTimelineReference {
 public:
  explicit SlotTimelineReference(std::size_t capacity);

  void record(const obs::SlotRecord& rec) noexcept;
  std::vector<obs::SlotRecord> snapshot(std::size_t max_records = 0) const;
  std::string to_json(std::size_t max_records = 0) const;
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kCellWords = 9;  ///< seq + 8 payload words

  std::atomic_ref<std::uint64_t> word(std::size_t cell,
                                      std::size_t i) const noexcept {
    return std::atomic_ref<std::uint64_t>(words_[cell * kCellWords + i]);
  }

  std::size_t capacity_;
  mutable std::vector<std::uint64_t> words_;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace tcsa
