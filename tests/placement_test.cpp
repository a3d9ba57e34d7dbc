// Tests for the Algorithm 4 even-spread placer and the first-fit ablation.
#include <gtest/gtest.h>

#include <vector>

#include "core/delay_model.hpp"
#include "core/placement.hpp"
#include "model/appearance_index.hpp"
#include "sim/broadcast_sim.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

namespace tcsa {
namespace {

TEST(Placement, CycleLengthMatchesEquation8) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {4, 2, 1};
  const PlacementResult r = place_even_spread(w, S, 3);
  EXPECT_EQ(r.program.cycle_length(), 9);  // ceil(25/3), paper Section 4.4
  EXPECT_EQ(r.program.channels(), 3);
}

TEST(Placement, EveryCopyPlaced) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {4, 2, 1};
  const PlacementResult r = place_even_spread(w, S, 3);
  EXPECT_EQ(r.program.occupied(), total_slots(w, S));  // 25
  const AppearanceIndex idx(r.program, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const GroupId g = w.group_of(page);
    EXPECT_EQ(idx.count(page), S[static_cast<std::size_t>(g)])
        << "page " << page;
  }
}

TEST(Placement, PaperExampleHasNoWindowOverflows) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::vector<SlotCount> S = {4, 2, 1};
  EXPECT_EQ(place_even_spread(w, S, 3).window_overflows, 0);
}

TEST(Placement, SpacingNearIdeal) {
  // With even spread, each page's max gap stays within ~2x the ideal
  // spacing t_major / S_i (window granularity can double it locally).
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 4, 100, 4, 2);
  const std::vector<SlotCount> S = {8, 4, 2, 1};
  const PlacementResult r = place_even_spread(w, S, 5);
  const SlotCount t_major = r.program.cycle_length();
  const AppearanceIndex idx(r.program, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const SlotCount s = S[static_cast<std::size_t>(w.group_of(page))];
    const SlotCount ideal = (t_major + s - 1) / s;
    EXPECT_LE(idx.max_gap(page), 2 * ideal + 1) << "page " << page;
  }
}

TEST(Placement, SingleChannelFullPack) {
  const Workload w = make_workload({2, 4}, {2, 2});
  const std::vector<SlotCount> S = {2, 1};
  const PlacementResult r = place_even_spread(w, S, 1);
  EXPECT_EQ(r.program.cycle_length(), 6);
  EXPECT_EQ(r.program.occupied(), 6);  // fully packed
}

TEST(Placement, CapacityAlwaysSuffices) {
  // Awkward sizes that leave a ragged final column.
  const Workload w = make_workload({2, 4}, {3, 7});
  const std::vector<SlotCount> S = {3, 1};
  const PlacementResult r = place_even_spread(w, S, 3);
  EXPECT_EQ(r.program.occupied(), 16);
  EXPECT_EQ(r.program.cycle_length(), 6);  // ceil(16/3)
}

TEST(Placement, RejectsBadChannelCount) {
  const Workload w = make_workload({2}, {1});
  const std::vector<SlotCount> S = {1};
  EXPECT_THROW(place_even_spread(w, S, 0), std::invalid_argument);
}

TEST(Placement, PaperScaleOverflowsAreRare) {
  // The paper claims a window always has room; adversarially skewed
  // workloads can overflow occasionally, but the fallback must stay a
  // fraction-of-a-percent event so spacing remains essentially even.
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape);
    const std::vector<SlotCount> S = {128, 64, 32, 16, 8, 4, 2, 1};
    const auto copies = static_cast<double>(total_slots(w, S));
    for (const SlotCount channels : {1, 5, 20, 60}) {
      const PlacementResult r = place_even_spread(w, S, channels);
      EXPECT_LT(static_cast<double>(r.window_overflows), copies * 0.01)
          << shape_name(shape) << " channels=" << channels;
    }
  }
}

TEST(Placement, TrackerMatchesReferenceScan) {
  // The column-tracker placer (occupancy counts + pointer-jumping next-free
  // links) must reproduce the seed double-scan implementation exactly:
  // same program slot for slot, same overflow count.
  const std::vector<SlotCount> S = {128, 64, 32, 16, 8, 4, 2, 1};
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape);
    for (const SlotCount channels : {1, 5, 20, 60}) {
      const PlacementResult fast = place_even_spread(w, S, channels);
      const PlacementResult ref = place_even_spread_reference(w, S, channels);
      EXPECT_TRUE(fast.program == ref.program)
          << shape_name(shape) << " channels=" << channels;
      EXPECT_EQ(fast.window_overflows, ref.window_overflows)
          << shape_name(shape) << " channels=" << channels;
    }
  }
}

TEST(FirstFit, PlacesEverythingButSpreadsWorse) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 4, 80, 4, 2);
  const std::vector<SlotCount> S = {6, 3, 2, 1};
  const PlacementResult even = place_even_spread(w, S, 4);
  const PlacementResult fit = place_first_fit(w, S, 4);
  EXPECT_EQ(fit.program.occupied(), even.program.occupied());
  EXPECT_EQ(fit.program.cycle_length(), even.program.cycle_length());

  SimConfig config;
  config.requests.count = 20000;
  const double even_delay = simulate_requests(even.program, w, config).avg_delay;
  const double fit_delay = simulate_requests(fit.program, w, config).avg_delay;
  EXPECT_LT(even_delay, fit_delay);  // spreading must help
}

TEST(FirstFit, SingleCopyFrequenciesStillCoverAllPages) {
  const Workload w = make_workload({2, 4}, {4, 4});
  const std::vector<SlotCount> S = {1, 1};
  const PlacementResult r = place_first_fit(w, S, 2);
  const AppearanceIndex idx(r.program, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page)
    EXPECT_EQ(idx.count(page), 1);
}

}  // namespace
}  // namespace tcsa
