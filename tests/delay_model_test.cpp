// Tests for the average-delay model (Section 4.1–4.3), including the golden
// values the paper computes by hand in its Figure-2 walkthrough and the
// agreement between the analytic model and the access simulator.
#include <gtest/gtest.h>

#include <vector>

#include "core/delay_model.hpp"
#include "core/placement.hpp"
#include "sim/broadcast_sim.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

// ------------------------------------------------------ even_spacing_delay

TEST(EvenSpacingDelay, ZeroWhenDeadlineMet) {
  EXPECT_DOUBLE_EQ(even_spacing_delay(4.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(even_spacing_delay(3.0, 4), 0.0);
}

TEST(EvenSpacingDelay, QuadraticOverSpacing) {
  // (g - t)^2 / (2 g): g = 6, t = 2 -> 16 / 12.
  EXPECT_DOUBLE_EQ(even_spacing_delay(6.0, 2), 16.0 / 12.0);
  // g = 8, t = 4 -> 16 / 16 = 1.
  EXPECT_DOUBLE_EQ(even_spacing_delay(8.0, 4), 1.0);
}

TEST(EvenSpacingDelay, MonotoneInSpacing) {
  double last = 0.0;
  for (double g = 4.0; g < 50.0; g += 1.0) {
    const double d = even_spacing_delay(g, 4);
    EXPECT_GE(d, last);
    last = d;
  }
}

TEST(EvenSpacingDelay, RejectsNonPositiveSpacing) {
  EXPECT_THROW(even_spacing_delay(0.0, 2), std::invalid_argument);
}

// --------------------------------------------------------- cycle arithmetic

TEST(CycleArithmetic, TotalSlotsAndMajorCycle) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {4, 2, 1};
  EXPECT_EQ(total_slots(w, S), 4 * 3 + 2 * 5 + 1 * 3);  // 25
  // Paper Section 4.4: ceil(25 / 3) = 9.
  EXPECT_EQ(major_cycle(w, S, 3), 9);
  EXPECT_EQ(major_cycle(w, S, 25), 1);
  EXPECT_EQ(major_cycle(w, S, 5), 5);
}

TEST(CycleArithmetic, RejectsZeroFrequencies) {
  const Workload w = make_workload({2, 4}, {1, 1});
  const std::vector<SlotCount> S = {1, 0};
  EXPECT_THROW(total_slots(w, S), std::invalid_argument);
}

TEST(CycleArithmetic, RejectsShortFrequencyVector) {
  const Workload w = make_workload({2, 4}, {1, 1});
  const std::vector<SlotCount> S = {1};
  EXPECT_THROW(total_slots(w, S), std::invalid_argument);
}

// ----------------------------------------- paper's worked example (golden)

// Figure 2(b), Step 2: three channels, G1 = 3 pages t=2, G2 = 5 pages t=4.
TEST(PaperStageDelay, WorkedExampleStep2) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  // r1 = 1: S = (1, 1, -): D'_2 = 0.12 (3/8 * (8/3 - 2) * (3 - 2)/2 = 0.125).
  {
    const std::vector<SlotCount> S = {1, 1, 1};
    EXPECT_NEAR(paper_stage_delay(w, S, 3, 1), 0.125, 1e-9);
  }
  // r1 = 2: S = (2, 1, -): D'_2 = 0.
  {
    const std::vector<SlotCount> S = {2, 1, 1};
    EXPECT_DOUBLE_EQ(paper_stage_delay(w, S, 3, 1), 0.0);
  }
}

// Figure 2(b), Step 3: r1 = 2 fixed, r2 swept.
TEST(PaperStageDelay, WorkedExampleStep3) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  // r2 = 1: S = (2, 1, 1): paper reports D'_3 = 0.15.
  {
    const std::vector<SlotCount> S = {2, 1, 1};
    EXPECT_NEAR(paper_stage_delay(w, S, 3, 2), 0.1547, 5e-4);
  }
  // r2 = 2: S = (4, 2, 1): paper reports D'_3 = 0.04.
  {
    const std::vector<SlotCount> S = {4, 2, 1};
    EXPECT_NEAR(paper_stage_delay(w, S, 3, 2), 0.042, 2e-3);
  }
}

TEST(PaperStageDelay, PrefixScopeIgnoresLaterGroups) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S_small = {1, 1, 1};
  const std::vector<SlotCount> S_large = {1, 1, 999};
  EXPECT_DOUBLE_EQ(paper_stage_delay(w, S_small, 3, 1),
                   paper_stage_delay(w, S_large, 3, 1));
}

TEST(PaperStageDelay, ZeroUnderSufficientBandwidth) {
  // SUSC frequencies at the minimum channel count meet every deadline.
  const Workload w = make_workload({2, 4}, {2, 3});
  const std::vector<SlotCount> S = {2, 1};  // t_h/t_i
  EXPECT_DOUBLE_EQ(paper_stage_delay(w, S, 2, 1), 0.0);
}

// ------------------------------------------------- analytic per-request AvgD

TEST(AnalyticDelay, ZeroWhenEveryDeadlineMet) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const std::vector<SlotCount> S = {2, 1};
  EXPECT_DOUBLE_EQ(analytic_average_delay(w, S, 2), 0.0);
}

TEST(AnalyticDelay, HandComputedSingleGroup) {
  // 6 pages, t = 2, S = 1, one channel: cycle 6, spacing 6, delay
  // (6-2)^2 / (2*6) = 16/12.
  const Workload w = make_workload({2}, {6});
  const std::vector<SlotCount> S = {1};
  EXPECT_DOUBLE_EQ(analytic_average_delay(w, S, 1), 16.0 / 12.0);
}

TEST(AnalyticDelay, ProportionalToPaperObjective) {
  // Over full-group scope the two objectives differ by the constant factor
  // n / N_real — exactly so in the continuous limit; the ceil() on t_major
  // perturbs small instances, so the check runs on a large workload where
  // discretisation is negligible.
  const Workload w = make_workload({2, 4, 8}, {300, 500, 300});
  const GroupId h = w.group_count();
  for (const std::vector<SlotCount>& S :
       {std::vector<SlotCount>{1, 1, 1}, std::vector<SlotCount>{2, 1, 1},
        std::vector<SlotCount>{4, 2, 1}, std::vector<SlotCount>{6, 2, 1}}) {
    for (const SlotCount channels : {1, 2, 3}) {
      const double paper = paper_stage_delay(w, S, channels, h - 1);
      const double exact = analytic_average_delay(w, S, channels);
      const double ratio = static_cast<double>(w.total_pages()) /
                           static_cast<double>(channels);
      ASSERT_GT(paper, 0.0);  // far below the bound: every group is late
      EXPECT_NEAR(exact * ratio / paper, 1.0, 0.02)
          << "S=" << S[0] << "," << S[1] << "," << S[2]
          << " channels=" << channels;
    }
  }
}

TEST(AnalyticDelay, BothObjectivesAgreeOnZero) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {4, 2, 1};
  const SlotCount channels = 4;  // the Theorem 3.1 minimum
  EXPECT_DOUBLE_EQ(paper_stage_delay(w, S, channels, 2), 0.0);
  EXPECT_DOUBLE_EQ(analytic_average_delay(w, S, channels), 0.0);
}

// --------------------------------------- model vs simulation (ground truth)

// The analytic model predicts the simulator's AvgD once placement actually
// spreads copies evenly; this is the linchpin connecting Section 4.1's math
// to the reported metric.
class ModelVsSimulation
    : public ::testing::TestWithParam<std::tuple<GroupSizeShape, int>> {};

TEST_P(ModelVsSimulation, AnalyticTracksSimulated) {
  const auto [shape, channels] = GetParam();
  const Workload w = make_paper_workload(shape, 5, 200, 2, 2);
  // Modest frequencies exercising real lateness.
  const std::vector<SlotCount> S = {8, 4, 2, 1, 1};
  const PlacementResult placed = place_even_spread(w, S, channels);
  SimConfig config;
  config.requests.count = 30000;
  config.seed = 1234;
  const SimResult sim = simulate_requests(placed.program, w, config);
  const double predicted = analytic_average_delay(w, S, channels);
  // Placement granularity and sampling noise both blur the match; 15%
  // relative (plus a small absolute floor) is ample to catch real bugs.
  EXPECT_NEAR(sim.avg_delay, predicted,
              std::max(0.6, predicted * 0.15))
      << "shape=" << shape_name(shape) << " channels=" << channels;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelVsSimulation,
    ::testing::Combine(::testing::Values(GroupSizeShape::kUniform,
                                         GroupSizeShape::kNormal,
                                         GroupSizeShape::kLSkewed,
                                         GroupSizeShape::kSSkewed),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return shape_name(std::get<0>(info.param)) + "_ch" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tcsa
