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
// stream reads back exactly. Storage is the non-empty buckets only, one
// ascending 16-byte {index, count} pair each (an empty histogram holds
// none), so copying, merging or scanning one costs the buckets written, not
// the kBuckets of the layout. record() is a binary search (plus an insert
// for a new bucket), merge() is exact, and a quantile is one scan of the
// written buckets using the tree's nearest-rank definition (util/stats.hpp).
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

  struct Bucket {
    std::size_t index = 0;
    std::uint64_t count = 0;
    bool operator==(const Bucket&) const = default;
  };

  /// Bucket of a non-NaN value's rounded integer (ascending with value),
  /// and bucket b's midpoint, which a quantile reads.
  static std::size_t bucket_index(double value) noexcept;
  static double bucket_value(std::size_t b) noexcept;

  /// O(log buckets). NaN is ignored; infinities land in the outermost
  /// buckets.
  void record(double value);
  /// Adds `other`'s samples: the result equals one histogram fed both
  /// streams, bucket for bucket. One pass over both bucket lists.
  void merge(const LogHistogram& other);
  /// merge() of a histogram given as strictly ascending, non-empty buckets
  /// (index < kBuckets) and extremes.
  void merge_buckets(std::span<const Bucket> buckets, double min,
                     double max);
  /// Removes `base`, an earlier state of this stream (its buckets are a
  /// subset of this one's, none fuller), dropping the buckets it empties.
  /// A difference loses its extremes; each becomes the tighter of this
  /// one's and the outer edge of the outermost non-empty bucket, so merging
  /// `base` back is exact.
  void subtract(const LogHistogram& base) noexcept;

  /// The non-empty buckets, ascending: the storage itself.
  const std::vector<Bucket>& buckets() const noexcept { return buckets_; }

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

  /// Bytes of bucket storage: 16 per written bucket, at most twice that
  /// while the vector grows; 0 when empty.
  std::size_t storage_bytes() const noexcept {
    return buckets_.capacity() * sizeof(Bucket);
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  /// Adds ascending `other` into buckets_ in one two-pointer pass.
  void add(std::span<const Bucket> other);

  std::vector<Bucket> buckets_;  ///< non-empty only, ascending by index
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace tcsa::obs
