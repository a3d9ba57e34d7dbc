// Tests for src/online: choose_schedule, the reschedule entry point the
// live server's start-up and hot swap share.
#include <gtest/gtest.h>

#include "core/channel_bound.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "online/adaptive.hpp"
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

}  // namespace
}  // namespace tcsa
