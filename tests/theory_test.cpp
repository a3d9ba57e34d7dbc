// Tests for the theory module (waterfilling lower bound, capacity
// planning).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/channel_bound.hpp"
#include "core/opt.hpp"
#include "core/pamad.hpp"
#include "core/theory.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

TEST(Theory, SufficientChannelsMeanZeroLevel) {
  const Workload w = make_workload({2, 4}, {2, 3});
  EXPECT_DOUBLE_EQ(waterfilling_level(w, min_channels(w)), 0.0);
  EXPECT_TRUE(waterfilling_spacings(w, min_channels(w)).empty());
  EXPECT_DOUBLE_EQ(continuous_delay_lower_bound(w, min_channels(w)), 0.0);
}

TEST(Theory, SpacingsSatisfyBandwidthConstraint) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 6, 300, 4, 2);
  for (const SlotCount channels : {1, 3, 7}) {
    const auto g = waterfilling_spacings(w, channels);
    ASSERT_FALSE(g.empty());
    double demand = 0.0;
    for (GroupId i = 0; i < w.group_count(); ++i)
      demand += static_cast<double>(w.pages_in_group(i)) /
                g[static_cast<std::size_t>(i)];
    EXPECT_NEAR(demand, static_cast<double>(channels), 1e-6);
  }
}

TEST(Theory, SpacingsFollowSqrtLaw) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 6, 300, 4, 2);
  const double theta = waterfilling_level(w, 3);
  ASSERT_GT(theta, 0.0);
  const auto g = waterfilling_spacings(w, 3);
  for (GroupId i = 0; i < w.group_count(); ++i) {
    const auto t = static_cast<double>(w.expected_time(i));
    EXPECT_NEAR(g[static_cast<std::size_t>(i)], std::sqrt(t * t + theta),
                1e-9);
  }
}

TEST(Theory, LowerBoundsEveryIntegerAssignment) {
  const Workload w = make_paper_workload(GroupSizeShape::kNormal, 6, 300, 4, 2);
  for (const SlotCount channels : {1, 2, 5, 9}) {
    const double bound = continuous_delay_lower_bound(w, channels);
    const double opt =
        opt_frequencies_unconstrained(w, channels).predicted_delay;
    const double pamad = pamad_frequencies(w, channels).predicted_delay;
    EXPECT_LE(bound, opt + 1e-9) << "channels=" << channels;
    EXPECT_LE(bound, pamad + 1e-9) << "channels=" << channels;
    // The bound is tight-ish: OPT gets within 25% + a small absolute slack
    // (integer frequencies and ceil() keep it from touching).
    EXPECT_LE(opt, bound * 1.25 + 0.5) << "channels=" << channels;
  }
}

TEST(Theory, BoundDecreasesWithChannels) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 6, 300, 4, 2);
  double last = std::numeric_limits<double>::infinity();
  for (SlotCount channels = 1; channels <= min_channels(w); ++channels) {
    const double bound = continuous_delay_lower_bound(w, channels);
    EXPECT_LE(bound, last + 1e-12);
    last = bound;
  }
}

TEST(Theory, ChannelsForBudgetBrackets) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  // Zero budget -> the full Theorem 3.1 bound.
  EXPECT_EQ(channels_for_delay_budget(w, 0.0), min_channels(w));
  // Huge budget -> a single channel suffices.
  EXPECT_EQ(channels_for_delay_budget(w, 1e9), 1);
  // Intermediate budgets give the smallest count under budget.
  const SlotCount chosen = channels_for_delay_budget(w, 2.0);
  EXPECT_LE(continuous_delay_lower_bound(w, chosen), 2.0);
  if (chosen > 1) {
    EXPECT_GT(continuous_delay_lower_bound(w, chosen - 1), 2.0);
  }
}

TEST(Theory, RejectsBadArguments) {
  const Workload w = make_workload({2}, {1});
  EXPECT_THROW(waterfilling_level(w, 0), std::invalid_argument);
  EXPECT_THROW(channels_for_delay_budget(w, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
