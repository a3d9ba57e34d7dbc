// Tests for access-weighted PAMAD.
#include <gtest/gtest.h>

#include <vector>

#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "core/pamad.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

// ----------------------------------------------------------- weighted model

TEST(WeightedDelay, UniformWeightsMatchPlainModel) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {2, 1, 1};
  const std::vector<double> uniform(3, 1.0);
  for (const SlotCount channels : {1, 2, 3}) {
    EXPECT_DOUBLE_EQ(
        analytic_group_weighted_delay(w, S, channels, uniform),
        analytic_average_delay(w, S, channels));
  }
}

TEST(WeightedDelay, WeightOnLateGroupRaisesDelay) {
  const Workload w = make_workload({2, 4}, {4, 4});
  const std::vector<SlotCount> S = {1, 1};
  // One channel: spacing 8 for both; t=2 group is later.
  const std::vector<double> hot_tight = {10.0, 1.0};
  const std::vector<double> hot_loose = {1.0, 10.0};
  EXPECT_GT(analytic_group_weighted_delay(w, S, 1, hot_tight),
            analytic_group_weighted_delay(w, S, 1, hot_loose));
}

TEST(WeightedDelay, RejectsBadWeights) {
  const Workload w = make_workload({2, 4}, {1, 1});
  const std::vector<SlotCount> S = {1, 1};
  EXPECT_THROW(analytic_group_weighted_delay(w, S, 1, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(analytic_group_weighted_delay(
                   w, S, 1, std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

// --------------------------------------------------------- weighted PAMAD

TEST(WeightedPamad, UniformWeightsBehaveLikeExactObjective) {
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape, 6, 300, 4, 2);
    const std::vector<double> uniform(6, 1.0);
    for (const SlotCount channels : {2, 5, 9}) {
      const PamadFrequencies weighted =
          pamad_frequencies_weighted(w, channels, uniform);
      const PamadFrequencies exact =
          pamad_frequencies(w, channels, PamadObjective::kExact);
      EXPECT_EQ(weighted.S, exact.S)
          << shape_name(shape) << " channels=" << channels;
    }
  }
}

TEST(WeightedPamad, SkewedWeightsShiftBandwidthToHotGroups) {
  // All the access weight on the tightest group: it should be broadcast at
  // least as often (relative to others) as under uniform access.
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 6, 300, 4, 2);
  const SlotCount channels = min_channels(w) / 4;
  std::vector<double> hot_first(6, 0.05);
  hot_first[0] = 1.0;
  const PamadFrequencies weighted =
      pamad_frequencies_weighted(w, channels, hot_first);
  const PamadFrequencies plain = pamad_frequencies(w, channels);
  EXPECT_GE(weighted.S[0] * plain.S.back(),
            plain.S[0] * weighted.S.back());
  // And it must win on the weighted metric itself.
  EXPECT_LE(analytic_group_weighted_delay(w, weighted.S, channels, hot_first),
            analytic_group_weighted_delay(w, plain.S, channels, hot_first) +
                1e-9);
}

TEST(WeightedPamad, WeightedBeatsPlainOnWeightedMetricOverall) {
  // Greedy vs greedy is not pointwise-dominant (either can be lucky at one
  // channel count near the bound), so the claim is aggregate: summed over
  // the whole channel sweep, optimising the weighted objective helps the
  // weighted outcome for every shape.
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape, 6, 300, 4, 2);
    std::vector<double> weights = {8.0, 4.0, 2.0, 1.0, 0.5, 0.25};
    double weighted_sum = 0.0;
    double plain_sum = 0.0;
    for (SlotCount channels = 1; channels <= min_channels(w); ++channels) {
      weighted_sum += analytic_group_weighted_delay(
          w, pamad_frequencies_weighted(w, channels, weights).S, channels,
          weights);
      plain_sum += analytic_group_weighted_delay(
          w, pamad_frequencies(w, channels).S, channels, weights);
    }
    EXPECT_LE(weighted_sum, plain_sum * 1.01) << shape_name(shape);
  }
}

TEST(WeightedPamad, RejectsBadWeights) {
  const Workload w = make_workload({2, 4}, {1, 1});
  EXPECT_THROW(
      pamad_frequencies_weighted(w, 1, std::vector<double>{1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      pamad_frequencies_weighted(w, 1, std::vector<double>{-1.0, 1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      pamad_frequencies_weighted(w, 1, std::vector<double>{0.0, 0.0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
