// log_histogram.hpp — bounded log-linear histogram for unbounded streams;
// the tree's only bucket layout and quantile rule (registry too).
//
// HDR-style buckets over values rounded to the caller's integer unit
// (microseconds everywhere in the tree). Magnitudes below 128 get one
// exact bucket each; every further octave [2^k, 2^(k+1)) splits into 64
// equal buckets, so a bucket is at most 1/64 of its lower edge wide and its
// midpoint lies within 1/128 (< 1%) of every value in it. Negative values
// mirror the positive buckets (loadgen slack goes negative when a promise
// breaks). Magnitudes from 2^48 up saturate into the outermost bucket.
// min()/max() are exact and quantile() is clamped to them, so a constant
// stream reads back exactly. Storage is fixed (kBuckets counters, 43 KiB)
// whatever the sample count; record() is O(1), merge() is exact, and a
// quantile is one bucket scan using the tree's nearest-rank definition
// (util/stats.hpp).
//
// Not thread-safe: each writer owns one, and owners merge or lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tcsa::obs {

class LogHistogram {
 public:
  /// Buckets per sign: 128 unit buckets, then 64 per octave up to 2^48.
  static constexpr std::size_t kSideBuckets = 128 + (48 - 7) * 64;
  static constexpr std::size_t kBuckets = 2 * kSideBuckets;

  struct Bucket { std::size_t index = 0; std::uint64_t count = 0; };

  /// Bucket of a non-NaN value's rounded integer (ascending with value),
  /// and bucket b's midpoint, which a quantile reads.
  static std::size_t bucket_index(double value) noexcept;
  static double bucket_value(std::size_t b) noexcept;

  LogHistogram();

  /// O(1). NaN is ignored; infinities land in the outermost buckets.
  void record(double value) noexcept;
  /// Adds `other`'s samples: the result equals one histogram fed both
  /// streams, bucket for bucket.
  void merge(const LogHistogram& other) noexcept;
  /// merge() of a histogram given as buckets (index < kBuckets) and extremes.
  void merge_buckets(std::span<const Bucket> buckets, double min,
                     double max) noexcept;
  /// Removes `base`, an earlier state of this stream. A difference loses
  /// its extremes; each becomes the tighter of this one's and the outer
  /// edge of the outermost non-empty bucket, so merging `base` back is exact.
  void subtract(const LogHistogram& base) noexcept;

  /// The non-empty buckets, ascending.
  std::vector<Bucket> buckets() const;

  std::uint64_t count() const noexcept { return count_; }
  /// Extremes, exact unless subtract() bounded them; 0 when empty.
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Nearest-rank q-quantile, q in [0, 1]: the midpoint of the bucket
  /// holding rank ceil(q*n), clamped to [min(), max()]; ranks 1 and n read
  /// the exact extremes. 0 when empty.
  double quantile(double q) const noexcept;
  /// out[i] = quantile(qs[i]) in one bucket scan; qs must be ascending and
  /// out at least as long.
  void quantiles(std::span<const double> qs, std::span<double> out) const
      noexcept;

  /// Bytes of bucket storage (constant).
  std::size_t storage_bytes() const noexcept {
    return counts_.size() * sizeof(std::uint64_t);
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  std::vector<std::uint64_t> counts_;  ///< kBuckets, ascending by value
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tcsa::obs
