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

/// Midpoint magnitude of side_bucket's bucket b (inverse of the above).
double side_midpoint(std::size_t b) noexcept {
  if (b < kUnitBuckets) return static_cast<double>(b);
  const auto shift = static_cast<unsigned>(b / kSubBuckets - 1);
  const std::uint64_t lo = (b % kSubBuckets + kSubBuckets) << shift;
  return static_cast<double>(lo) +
         static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
}

/// Negative magnitudes fill the lower half in reverse, so bucket order is
/// value order (the lower half's top cell, a negative zero, stays empty).
std::size_t bucket_of(double value) noexcept {
  const auto rounded =
      std::llround(std::clamp(value, -kMaxMagnitude, kMaxMagnitude));
  if (rounded >= 0) return kSide + side_bucket(static_cast<std::uint64_t>(rounded));
  return kSide - 1 - side_bucket(static_cast<std::uint64_t>(-rounded));
}

double bucket_value(std::size_t b) noexcept {
  return b >= kSide ? side_midpoint(b - kSide) : -side_midpoint(kSide - 1 - b);
}

}  // namespace

LogHistogram::LogHistogram() : counts_(kBuckets, 0) {}

void LogHistogram::record(double value) noexcept {
  if (std::isnan(value)) return;
  ++counts_[bucket_of(value)];
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
  for (std::size_t b = bucket_of(min_); b < kBuckets && next < qs.size();
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
