// stats.hpp — streaming and batch statistics used by the simulator and the
// benchmark harness.
//
// OnlineStats accumulates mean / variance / extrema in one pass (Welford's
// algorithm), so simulations never need to retain raw samples unless
// percentiles are requested, in which case SampleSet is used.
//
// Percentiles follow one definition everywhere in the tree: nearest rank,
// the sample at rank ceil(q*n) clamped to [1, n] (the same as
// perfbench/run.py). nearest_rank() below serves inputs of bounded size;
// unbounded live streams use obs::LogHistogram, which reads the same rank
// out of fixed-size log-linear buckets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace tcsa {

/// 1-based nearest rank of the q-quantile among n > 0 samples: ceil(q*n)
/// clamped to [1, n].
inline std::uint64_t nearest_rank_position(double q, std::uint64_t n) noexcept {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (!(rank > 1.0)) return 1;
  if (rank >= static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(rank);
}

/// Nearest-rank q-quantile of a non-empty sample, q in [0, 1]. Reorders
/// `scratch` (one nth_element); pass a copy to keep the original order.
template <typename T>
T nearest_rank(std::vector<T>& scratch, double q) {
  TCSA_REQUIRE(!scratch.empty(), "nearest_rank: empty sample");
  TCSA_REQUIRE(q >= 0.0 && q <= 1.0, "nearest_rank: q outside [0,1]");
  const auto nth =
      scratch.begin() +
      static_cast<std::ptrdiff_t>(nearest_rank_position(q, scratch.size()) - 1);
  std::nth_element(scratch.begin(), nth, scratch.end());
  return *nth;
}

/// One-pass mean / variance / min / max accumulator (Welford).
class OnlineStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator (parallel-friendly, Chan et al. update).
  void merge(const OnlineStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  /// Mean of the observed samples; 0 for an empty accumulator.
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample; supplies exact nearest-rank quantiles. Use when the
/// sample count is bounded (e.g. one value per simulated request).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Nearest-rank quantile (see nearest_rank); q in [0, 1]. Requires at
  /// least one sample.
  double quantile(double q) const;

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace tcsa
