#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/contracts.hpp"

namespace tcsa {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TCSA_REQUIRE(lo <= hi, "uniform_int: empty range");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Debiased modulo (Lemire-style rejection kept simple): reject the final
  // partial bucket so every value in [lo, hi] is exactly equally likely.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) v = (*this)();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::uniform01() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  TCSA_REQUIRE(lo <= hi, "uniform_real: empty range");
  return lo + (hi - lo) * uniform01();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) {
  TCSA_REQUIRE(sigma >= 0.0, "normal: sigma must be non-negative");
  return mean + sigma * normal();
}

double Rng::exponential(double rate) {
  TCSA_REQUIRE(rate > 0.0, "exponential: rate must be positive");
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -std::log(u) / rate;
}

bool Rng::bernoulli(double p) {
  TCSA_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0,1]");
  return uniform01() < p;
}

Rng Rng::fork(std::uint64_t tag) noexcept {
  // Mix the parent's next output with the tag so children are decorrelated
  // both from the parent stream and from differently-tagged siblings.
  std::uint64_t s = (*this)() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  return Rng(splitmix64(s));
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  TCSA_REQUIRE(!weights.empty(), "DiscreteSampler: empty weights");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    TCSA_REQUIRE(w >= 0.0, "DiscreteSampler: negative weight");
    total += w;
  }
  TCSA_REQUIRE(total > 0.0, "DiscreteSampler: all weights zero");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  // Vose's alias method: partition into under-full and over-full buckets.
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const std::size_t bucket =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size()) - 1));
  return rng.uniform01() < prob_[bucket] ? bucket : alias_[bucket];
}

std::vector<double> zipf_weights(std::size_t n, double theta) {
  TCSA_REQUIRE(n > 0, "zipf_weights: n must be positive");
  TCSA_REQUIRE(theta >= 0.0, "zipf_weights: theta must be non-negative");
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k)
    w[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
  return w;
}

}  // namespace tcsa
