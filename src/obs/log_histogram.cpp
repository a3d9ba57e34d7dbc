#include "obs/log_histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/stats.hpp"

namespace tcsa::obs {
namespace {

constexpr std::uint64_t kUnitBuckets = 128;
constexpr std::uint64_t kSubBuckets = 64;  // per octave past the unit range
constexpr std::size_t kSide = LogHistogram::kSideBuckets;
constexpr double kMaxMagnitude = 281474976710655.0;  // 2^48 - 1

/// Bucket of a magnitude within one sign's half: m itself below 128, else
/// octave k = bit_width(m) - 1 keeps its top 7 bits, m >> (k - 6) in
/// [64, 128), and octaves stack 64 buckets apart.
std::size_t side_bucket(std::uint64_t m) noexcept {
  if (m < kUnitBuckets) return m;
  const int shift = std::bit_width(m) - 7;
  return static_cast<std::size_t>(shift) * kSubBuckets + (m >> shift);
}

/// Side bucket of b (halves mirror at zero), its lowest magnitude, width.
std::size_t side_of(std::size_t b) noexcept {
  return b >= kSide ? b - kSide : kSide - 1 - b;
}
std::uint64_t side_low(std::size_t s) noexcept {
  if (s < kUnitBuckets) return s;
  return (s % kSubBuckets + kSubBuckets) << (s / kSubBuckets - 1);
}
double width(std::size_t b) noexcept {
  const std::size_t s = side_of(b);
  if (s < kUnitBuckets) return 1.0;
  return static_cast<double>(std::uint64_t{1} << (s / kSubBuckets - 1));
}

}  // namespace

/// Negative magnitudes fill the lower half in reverse, so bucket order is
/// value order (the lower half's top cell, a negative zero, stays empty).
std::size_t LogHistogram::bucket_index(double value) noexcept {
  const auto rounded =
      std::llround(std::clamp(value, -kMaxMagnitude, kMaxMagnitude));
  if (rounded >= 0) return kSide + side_bucket(static_cast<std::uint64_t>(rounded));
  return kSide - 1 - side_bucket(static_cast<std::uint64_t>(-rounded));
}

double LogHistogram::bucket_value(std::size_t b) noexcept {
  const double mid =
      static_cast<double>(side_low(side_of(b))) + (width(b) - 1.0) / 2.0;
  return b >= kSide ? mid : -mid;
}

LogHistogram::LogHistogram() : counts_(kBuckets, 0) {}

void LogHistogram::record(double value) noexcept {
  if (std::isnan(value)) return;
  ++counts_[bucket_index(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
}

void LogHistogram::merge_buckets(std::span<const Bucket> buckets, double min,
                                 double max) noexcept {
  std::uint64_t added = 0;
  for (const Bucket& bucket : buckets) {
    counts_[bucket.index] += bucket.count;
    added += bucket.count;
  }
  if (added == 0) return;
  min_ = count_ ? std::min(min_, min) : min;
  max_ = count_ ? std::max(max_, max) : max;
  count_ += added;
}

void LogHistogram::subtract(const LogHistogram& base) noexcept {
  if (base.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] -= base.counts_[b];
  count_ -= base.count_;
  if (count_ == 0) {
    min_ = max_ = 0.0;
    return;
  }
  // Integers [lo, hi] hold values lo - 0.5 .. hi + 0.5; outermost: beyond.
  std::size_t low = 0;
  while (counts_[low] == 0) ++low;
  std::size_t high = kBuckets - 1;
  while (counts_[high] == 0) --high;
  if (low > 0) min_ = std::max(min_, bucket_value(low) - width(low) / 2.0);
  if (high + 1 < kBuckets)
    max_ = std::min(max_, bucket_value(high) + width(high) / 2.0);
}

std::vector<LogHistogram::Bucket> LogHistogram::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t b = 0; b < kBuckets; ++b)
    if (counts_[b] != 0) out.push_back({b, counts_[b]});
  return out;
}

double LogHistogram::quantile(double q) const noexcept {
  double out = 0.0;
  quantiles({&q, 1}, {&out, 1});
  return out;
}

void LogHistogram::quantiles(std::span<const double> qs,
                             std::span<double> out) const noexcept {
  std::size_t next = 0;
  if (count_ == 0) {
    for (; next < qs.size(); ++next) out[next] = 0.0;
    return;
  }
  std::uint64_t seen = 0;
  for (std::size_t b = bucket_index(min_); b < kBuckets && next < qs.size();
       ++b) {
    seen += counts_[b];
    for (; next < qs.size(); ++next) {
      const std::uint64_t rank = nearest_rank_position(qs[next], count_);
      if (seen < rank) break;
      // The first and last ranks are the exact extremes.
      out[next] = rank == 1        ? min_
                  : rank == count_ ? max_
                                   : std::clamp(bucket_value(b), min_, max_);
    }
  }
}

}  // namespace tcsa::obs
