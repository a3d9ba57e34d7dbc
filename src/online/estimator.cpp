#include "online/estimator.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace tcsa {

ToleranceEstimator::ToleranceEstimator(GroupId classes, std::size_t window)
    : capacity_(window) {
  TCSA_REQUIRE(classes >= 1, "ToleranceEstimator: need at least one class");
  TCSA_REQUIRE(window >= 1, "ToleranceEstimator: window must be >= 1");
  windows_.resize(static_cast<std::size_t>(classes));
}

void ToleranceEstimator::add_sample(GroupId cls, SlotCount tolerance) {
  TCSA_REQUIRE(cls >= 0 && cls < classes(),
               "ToleranceEstimator: class out of range");
  TCSA_REQUIRE(tolerance >= 1, "ToleranceEstimator: tolerance must be >= 1");
  Window& w = windows_[static_cast<std::size_t>(cls)];
  if (w.samples.size() < capacity_) {
    w.samples.push_back(tolerance);
    return;
  }
  w.full = true;
  w.samples[w.next] = tolerance;
  w.next = (w.next + 1) % capacity_;
}

std::size_t ToleranceEstimator::sample_count(GroupId cls) const {
  TCSA_REQUIRE(cls >= 0 && cls < classes(),
               "ToleranceEstimator: class out of range");
  return windows_[static_cast<std::size_t>(cls)].samples.size();
}

SlotCount ToleranceEstimator::estimate(GroupId cls, double quantile,
                                       SlotCount fallback) const {
  TCSA_REQUIRE(quantile >= 0.0 && quantile <= 1.0,
               "ToleranceEstimator: quantile outside [0,1]");
  TCSA_REQUIRE(cls >= 0 && cls < classes(),
               "ToleranceEstimator: class out of range");
  const Window& w = windows_[static_cast<std::size_t>(cls)];
  if (w.samples.empty()) return fallback;
  std::vector<SlotCount> scratch = w.samples;
  return std::max<SlotCount>(1, nearest_rank(scratch, quantile));
}

}  // namespace tcsa
