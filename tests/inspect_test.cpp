// Tests for program inspection (model/inspect) and trace import
// (workload/trace).
#include <gtest/gtest.h>


#include "core/channel_bound.hpp"
#include "core/pamad.hpp"
#include "core/susc.hpp"
#include "model/inspect.hpp"
#include "model/validate.hpp"
#include "workload/trace.hpp"

namespace tcsa {
namespace {

// ------------------------------------------------------------------ inspect

TEST(Inspect, SuscReportShape) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const ProgramReport r = inspect_program(p, w);
  EXPECT_EQ(r.channels, 4);
  EXPECT_EQ(r.cycle_length, 8);
  EXPECT_EQ(r.pages_missing, 0);
  ASSERT_EQ(r.groups.size(), 3u);
  // SUSC: copies = t_h / t_i, worst gap exactly t_i.
  EXPECT_EQ(r.groups[0].copies_per_page, 4);
  EXPECT_EQ(r.groups[0].worst_gap, 2);
  EXPECT_EQ(r.groups[2].copies_per_page, 1);
  EXPECT_EQ(r.groups[2].worst_gap, 8);
  // Slot shares sum to 1 when nothing is missing.
  double share = 0.0;
  for (const auto& g : r.groups) share += g.share_of_slots;
  EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(Inspect, FillRatioAndIdealSpacing) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const PamadSchedule s = schedule_pamad(w, 3);
  const ProgramReport r = inspect_program(s.program, w);
  EXPECT_NEAR(r.fill_ratio, 25.0 / 27.0, 1e-12);
  EXPECT_NEAR(r.groups[0].ideal_spacing, 9.0 / 4.0, 1e-12);
  // Mean gap is cycle / copies by construction of the identity.
  EXPECT_NEAR(r.groups[0].mean_gap, 9.0 / 4.0, 1e-12);
}

TEST(Inspect, MissingPagesCounted) {
  const Workload w = make_workload({4}, {3});
  BroadcastProgram p(1, 4);
  p.place(0, 0, 0);  // pages 1, 2 never appear
  const ProgramReport r = inspect_program(p, w);
  EXPECT_EQ(r.pages_missing, 2);
  const std::string text = report_to_string(r);
  EXPECT_NE(text.find("WARNING"), std::string::npos);
}

TEST(Inspect, ReportRendersAllGroups) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const BroadcastProgram p = schedule_susc(w);
  const std::string text = report_to_string(inspect_program(p, w));
  EXPECT_NE(text.find("group"), std::string::npos);
  EXPECT_NE(text.find("worst-gap"), std::string::npos);
}

TEST(Inspect, OccupancyStripScalesAndClamps) {
  BroadcastProgram p(1, 8);
  for (SlotCount s = 0; s < 4; ++s) p.place(0, s, 0);  // front half full
  const std::string strip = occupancy_strip(p, 4);
  ASSERT_EQ(strip.size(), 4u);
  EXPECT_EQ(strip[0], '9');
  EXPECT_EQ(strip[1], '9');
  EXPECT_EQ(strip[2], '0');
  EXPECT_EQ(strip[3], '0');
}

TEST(Inspect, StripWidthCappedAtCycle) {
  BroadcastProgram p(1, 3);
  EXPECT_EQ(occupancy_strip(p, 64).size(), 3u);
  EXPECT_THROW(occupancy_strip(p, 0), std::invalid_argument);
}

// -------------------------------------------------------------------- trace

TEST(Trace, ParsesFormatsAndComments) {
  const auto entries = parse_trace(
      "# route pages\n"
      "bridge_a 5\n"
      "tunnel,12\n"
      "\n"
      "ring_road\t40   # arterial\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "bridge_a");
  EXPECT_EQ(entries[0].expected_time, 5);
  EXPECT_EQ(entries[1].name, "tunnel");
  EXPECT_EQ(entries[1].expected_time, 12);
  EXPECT_EQ(entries[2].name, "ring_road");
  EXPECT_EQ(entries[2].expected_time, 40);
}

TEST(Trace, RejectsMalformedLines) {
  EXPECT_THROW(parse_trace("pagename\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("page 5 extra\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace("page 0\n"), std::invalid_argument);
}

TEST(Trace, PlanBuildsSchedulableWorkload) {
  std::vector<TraceEntry> entries;
  for (const SlotCount t : {2, 3, 4, 6, 9})
    entries.push_back(TraceEntry{"p" + std::to_string(t), t});
  const TracePlan plan = plan_from_trace(entries);
  // The Section-2 example: ladder {2,4,8}.
  EXPECT_EQ(plan.rearranged.workload.group_count(), 3);
  EXPECT_EQ(plan.ladder_ratio, 2);
  // Names follow their pages through the reordering.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PageId page = plan.rearranged.page_of_input[i];
    EXPECT_EQ(plan.name_of_page[page], entries[i].name);
  }
  // And the result schedules.
  const BroadcastProgram p = schedule_susc(plan.rearranged.workload);
  EXPECT_TRUE(is_valid_program(p, plan.rearranged.workload));
}

TEST(Trace, PlanRejectsEmpty) {
  EXPECT_THROW(plan_from_trace({}), std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
