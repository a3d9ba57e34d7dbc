// Tests for src/online: choose_schedule, the reschedule entry point the
// live server's start-up and hot swap share, and the tolerance estimator.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/channel_bound.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "online/adaptive.hpp"
#include "online/estimator.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

const Workload kWorkload = make_workload({4, 16, 64}, {10, 20, 30});

TEST(ChooseSchedule, SuscAtAndAboveTheBoundIsValid) {
  const SlotCount bound = min_channels(kWorkload);
  for (const SlotCount channels : {bound, bound + 1, 2 * bound}) {
    const ScheduleOutcome outcome = choose_schedule(kWorkload, channels);
    EXPECT_EQ(outcome.method, Method::kSusc) << "channels=" << channels;
    EXPECT_EQ(outcome.program.channels(), channels);
    const ValidityReport report = validate_program(outcome.program, kWorkload);
    EXPECT_TRUE(report.valid) << "channels=" << channels;
    EXPECT_LE(report.worst_lateness, 0) << "channels=" << channels;
  }
}

TEST(ChooseSchedule, PamadBelowTheBoundAirsEveryPage) {
  const SlotCount bound = min_channels(kWorkload);
  ASSERT_GT(bound, 2);
  for (const SlotCount channels : {SlotCount{1}, bound / 2, bound - 1}) {
    const ScheduleOutcome outcome = choose_schedule(kWorkload, channels);
    EXPECT_EQ(outcome.method, Method::kPamad) << "channels=" << channels;
    EXPECT_EQ(outcome.program.channels(), channels);
    const AppearanceIndex index(outcome.program, kWorkload.total_pages());
    for (PageId page = 0; page < kWorkload.total_pages(); ++page)
      EXPECT_GE(index.count(page), 1)
          << "page " << page << " at channels=" << channels;
  }
}

// ---------------------------------------------------------------- estimator

TEST(Estimator, FallbackBeforeSamples) {
  const ToleranceEstimator e(3);
  EXPECT_EQ(e.estimate(0, 0.1, 42), 42);
  EXPECT_EQ(e.sample_count(0), 0u);
}

TEST(Estimator, QuantileOfWindow) {
  ToleranceEstimator e(1);
  for (SlotCount t = 1; t <= 100; ++t) e.add_sample(0, t);
  EXPECT_EQ(e.estimate(0, 0.0, 1), 1);
  EXPECT_EQ(e.estimate(0, 1.0, 1), 100);
  // 10th percentile of 1..100 ~ 10.
  EXPECT_NEAR(static_cast<double>(e.estimate(0, 0.1, 1)), 10.0, 2.0);
}

TEST(Estimator, WindowEvictsOldest) {
  ToleranceEstimator e(1, 4);
  for (const SlotCount t : {100, 100, 100, 100}) e.add_sample(0, t);
  EXPECT_EQ(e.estimate(0, 0.0, 1), 100);
  // Four fresh small samples fully replace the old regime.
  for (const SlotCount t : {5, 5, 5, 5}) e.add_sample(0, t);
  EXPECT_EQ(e.estimate(0, 1.0, 1), 5);
  EXPECT_EQ(e.sample_count(0), 4u);
}

TEST(Estimator, ClassesAreIndependent) {
  ToleranceEstimator e(2);
  e.add_sample(0, 10);
  e.add_sample(1, 200);
  EXPECT_EQ(e.estimate(0, 0.5, 1), 10);
  EXPECT_EQ(e.estimate(1, 0.5, 1), 200);
}

TEST(Estimator, RejectsBadInput) {
  ToleranceEstimator e(2);
  EXPECT_THROW(e.add_sample(2, 10), std::invalid_argument);
  EXPECT_THROW(e.add_sample(0, 0), std::invalid_argument);
  EXPECT_THROW(e.estimate(0, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(ToleranceEstimator(0), std::invalid_argument);
  EXPECT_THROW(ToleranceEstimator(1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
