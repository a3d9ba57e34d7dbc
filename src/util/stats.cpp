#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace tcsa {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::min() const noexcept { return count_ ? min_ : 0.0; }

double OnlineStats::max() const noexcept { return count_ ? max_ : 0.0; }

void SampleSet::add(double x) { samples_.push_back(x); }

double SampleSet::mean() const {
  TCSA_REQUIRE(!samples_.empty(), "SampleSet::mean on empty set");
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  TCSA_REQUIRE(!samples_.empty(), "SampleSet::stddev on empty set");
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : samples_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  TCSA_REQUIRE(!samples_.empty(), "SampleSet::min on empty set");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  TCSA_REQUIRE(!samples_.empty(), "SampleSet::max on empty set");
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::quantile(double q) const {
  TCSA_REQUIRE(!samples_.empty(), "SampleSet::quantile on empty set");
  std::vector<double> scratch(samples_);
  return nearest_rank(scratch, q);
}

}  // namespace tcsa
