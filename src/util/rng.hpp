// rng.hpp — deterministic pseudo-random number generation.
//
// All stochastic components of the library (workload generation, request
// arrival, simulation) draw from tcsa::Rng so that every experiment is
// reproducible from a single 64-bit seed. The generator is xoshiro256**,
// seeded through SplitMix64 — small, fast, and good enough statistically for
// simulation work (we are not doing cryptography).
//
// Derived streams: `Rng::fork(tag)` produces an independent child generator,
// so concurrent experiment legs (e.g. one per channel count) do not share or
// race on generator state and adding a leg never perturbs another leg's draws.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace tcsa {

/// Deterministic xoshiro256** generator with convenience samplers.
/// Satisfies UniformRandomBitGenerator, so it also works with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Two Rng objects with equal seeds produce equal
  /// streams on every platform (no std::random_device, no libc rand).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01() noexcept;

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform_real(double lo, double hi);

  /// Standard normal via Box–Muller (cached second value).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential with the given rate (> 0); used for Poisson arrivals.
  double exponential(double rate);

  /// Bernoulli trial with probability p in [0, 1].
  bool bernoulli(double p);

  /// Independent child generator; `tag` distinguishes siblings.
  Rng fork(std::uint64_t tag) noexcept;

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Alias-method sampler: O(n) build, O(1) draw from a fixed discrete
/// distribution. Used for Zipf-popularity request streams where millions of
/// draws are taken from the same page-popularity vector.
class DiscreteSampler {
 public:
  /// Builds from non-negative weights (at least one positive).
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index in [0, size()).
  std::size_t sample(Rng& rng) const;

  std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;        // scaled acceptance probabilities
  std::vector<std::uint32_t> alias_;
};

/// Zipf weight vector: weight[k] ∝ 1/(k+1)^theta for k in [0, n).
/// theta = 0 is uniform; theta around 0.8–1.0 is the classic web-access skew.
std::vector<double> zipf_weights(std::size_t n, double theta);

}  // namespace tcsa
