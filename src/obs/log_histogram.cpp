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

/// Position of the first bucket whose index is not below `index`, as
/// std::lower_bound finds it, but with the comparison feeding an add, not
/// a branch: record() searches for random values, and a branching search
/// mispredicts at about every other level. The answer stays within
/// [base, base + n].
std::size_t first_at_or_above(std::span<const LogHistogram::Bucket> buckets,
                              std::size_t index) noexcept {
  if (buckets.empty()) return 0;
  std::size_t base = 0;
  for (std::size_t n = buckets.size(); n > 1; n -= n / 2)
    base += buckets[base + n / 2].index < index ? n / 2 : 0;
  return base + (buckets[base].index < index ? 1 : 0);
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

void LogHistogram::record(double value) {
  if (std::isnan(value)) return;
  const std::size_t b = bucket_index(value);
  const auto it = buckets_.begin() + static_cast<std::ptrdiff_t>(
                                         first_at_or_above(buckets_, b));
  if (it != buckets_.end() && it->index == b) {
    ++it->count;
  } else {
    buckets_.insert(it, {b, 1});
  }
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
}

void LogHistogram::add(std::span<const Bucket> other) {
  if (buckets_.empty()) {
    buckets_.assign(other.begin(), other.end());
    return;
  }
  std::vector<Bucket> merged;
  merged.reserve(buckets_.size() + other.size());
  auto mine = buckets_.begin();
  for (const Bucket& theirs : other) {
    for (; mine != buckets_.end() && mine->index < theirs.index; ++mine)
      merged.push_back(*mine);
    if (mine != buckets_.end() && mine->index == theirs.index) {
      merged.push_back({theirs.index, (mine++)->count + theirs.count});
    } else {
      merged.push_back(theirs);
    }
  }
  merged.insert(merged.end(), mine, buckets_.end());
  buckets_ = std::move(merged);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  add(other.buckets_);
  min_ = count_ ? std::min(min_, other.min_) : other.min_;
  max_ = count_ ? std::max(max_, other.max_) : other.max_;
  count_ += other.count_;
}

void LogHistogram::merge_buckets(std::span<const Bucket> buckets, double min,
                                 double max) {
  std::uint64_t added = 0;
  for (const Bucket& bucket : buckets) added += bucket.count;
  if (added == 0) return;
  add(buckets);
  min_ = count_ ? std::min(min_, min) : min;
  max_ = count_ ? std::max(max_, max) : max;
  count_ += added;
}

void LogHistogram::subtract(const LogHistogram& base) noexcept {
  if (base.count_ == 0) return;
  // base's buckets are a subset of ours: one pass, compacting in place.
  auto theirs = base.buckets_.begin();
  auto out = buckets_.begin();
  for (Bucket& mine : buckets_) {
    if (theirs != base.buckets_.end() && theirs->index == mine.index)
      mine.count -= (theirs++)->count;
    if (mine.count != 0) *out++ = mine;
  }
  buckets_.erase(out, buckets_.end());
  count_ -= base.count_;
  if (count_ == 0) {
    min_ = max_ = 0.0;
    return;
  }
  // Integers [lo, hi] hold values lo - 0.5 .. hi + 0.5; outermost: beyond.
  const std::size_t low = buckets_.front().index;
  const std::size_t high = buckets_.back().index;
  if (low > 0) min_ = std::max(min_, bucket_value(low) - width(low) / 2.0);
  if (high + 1 < kBuckets)
    max_ = std::min(max_, bucket_value(high) + width(high) / 2.0);
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
  // `seen` counts the samples below bucket `it`, which starts at min's.
  auto it = buckets_.begin() + static_cast<std::ptrdiff_t>(first_at_or_above(
                                   buckets_, bucket_index(min_)));
  std::uint64_t seen = 0;
  for (; next < qs.size(); ++next) {
    const std::uint64_t rank = nearest_rank_position(qs[next], count_);
    while (it != buckets_.end() && seen + it->count < rank)
      seen += (it++)->count;
    if (it == buckets_.end()) return;
    // The first and last ranks are the exact extremes.
    out[next] = rank == 1        ? min_
                : rank == count_ ? max_
                                 : std::clamp(bucket_value(it->index), min_,
                                              max_);
  }
}

}  // namespace tcsa::obs
