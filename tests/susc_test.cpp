// Tests for the SUSC scheduler (Section 3.2) and its structural guarantees
// (Theorems 3.2 and 3.3).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/channel_bound.hpp"
#include "core/susc.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "sim/broadcast_sim.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

namespace tcsa {
namespace {

TEST(Susc, RejectsInsufficientChannels) {
  const Workload w = make_workload({2, 4}, {2, 3});  // needs 2
  EXPECT_THROW(schedule_susc(w, 1), std::invalid_argument);
}

TEST(Susc, PaperExampleValidAtMinimum) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const BroadcastProgram p = schedule_susc(w);  // 2 channels
  EXPECT_EQ(p.channels(), 2);
  EXPECT_EQ(p.cycle_length(), 4);  // t_h
  EXPECT_TRUE(is_valid_program(p, w));
}

TEST(Susc, CycleLengthIsLargestExpectedTime) {
  const Workload w = make_workload({2, 4, 8}, {1, 1, 1});
  EXPECT_EQ(schedule_susc(w).cycle_length(), 8);
}

TEST(Susc, EveryPageBroadcastExactlyCycleOverT) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const AppearanceIndex idx(p, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const SlotCount t = w.expected_time_of(page);
    EXPECT_EQ(idx.count(page), p.cycle_length() / t)
        << "page " << page << " has wrong replication count";
  }
}

TEST(Susc, Theorem33SpacingIsExactlyT) {
  // Each page's appearances form an arithmetic progression with step t_i on
  // a single channel.
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const AppearanceIndex idx(p, w.total_pages());
  for (PageId page = 0; page < w.total_pages(); ++page) {
    const SlotCount t = w.expected_time_of(page);
    const auto a = idx.appearances(page);
    for (std::size_t k = 1; k < a.size(); ++k)
      EXPECT_EQ(a[k] - a[k - 1], t) << "page " << page;
    EXPECT_LE(a.front(), t) << "page " << page;  // Condition (1)
  }
}

TEST(Susc, PagesStayOnOneChannel) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  for (PageId page = 0; page < w.total_pages(); ++page) {
    int channels_used = 0;
    for (SlotCount ch = 0; ch < p.channels(); ++ch) {
      bool on_channel = false;
      for (SlotCount s = 0; s < p.cycle_length(); ++s)
        if (p.at(ch, s) == page) on_channel = true;
      if (on_channel) ++channels_used;
    }
    EXPECT_EQ(channels_used, 1) << "page " << page;
  }
}

TEST(Susc, ExtraChannelsStillValid) {
  const Workload w = make_workload({2, 4}, {2, 3});
  for (SlotCount channels = 2; channels <= 6; ++channels) {
    const BroadcastProgram p = schedule_susc(w, channels);
    EXPECT_TRUE(is_valid_program(p, w)) << channels << " channels";
  }
}

TEST(Susc, SingleGroupSingleChannel) {
  const Workload w = make_workload({4}, {4});
  const BroadcastProgram p = schedule_susc(w);  // 1 channel, cycle 4
  EXPECT_EQ(p.channels(), 1);
  EXPECT_EQ(p.occupied(), 4);
  EXPECT_TRUE(is_valid_program(p, w));
}

TEST(Susc, FullyPackedWhenDemandIsIntegral) {
  // Demand = 4/2 + 8/4 = 4 channels exactly: zero idle slots.
  const Workload w = make_workload({2, 4}, {4, 8});
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_EQ(p.channels(), 4);
  EXPECT_EQ(p.occupied(), p.capacity());
}

TEST(Susc, SimulatedClientsNeverMissDeadline) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  SimConfig config;
  config.requests.count = 2000;
  const SimResult result = simulate_requests(p, w, config);
  EXPECT_DOUBLE_EQ(result.avg_delay, 0.0);
  EXPECT_DOUBLE_EQ(result.miss_rate, 0.0);
}

// Property sweep: SUSC produces a valid program at the Theorem 3.1 minimum
// across shapes, ladder ratios and sizes — the paper's core sufficiency
// claim (Theorems 3.1 + 3.2 + 3.3 together).
struct SuscCase {
  GroupSizeShape shape;
  GroupId h;
  SlotCount n;
  SlotCount t1;
  SlotCount c;
};

class SuscProperty : public ::testing::TestWithParam<SuscCase> {};

TEST_P(SuscProperty, ValidAtMinimumChannels) {
  const SuscCase& tc = GetParam();
  const Workload w = make_paper_workload(tc.shape, tc.h, tc.n, tc.t1, tc.c);
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_EQ(p.channels(), min_channels(w));
  const ValidityReport report = validate_program(p, w);
  EXPECT_TRUE(report.valid) << w.describe() << "\nfirst violation: "
                            << (report.violations.empty()
                                    ? "none"
                                    : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SuscProperty,
    ::testing::Values(
        SuscCase{GroupSizeShape::kUniform, 1, 5, 3, 2},
        SuscCase{GroupSizeShape::kUniform, 2, 10, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 3, 11, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 4, 64, 2, 2},
        SuscCase{GroupSizeShape::kUniform, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kNormal, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kLSkewed, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kSSkewed, 8, 1000, 4, 2},
        SuscCase{GroupSizeShape::kZipf, 6, 300, 5, 2},
        SuscCase{GroupSizeShape::kBinomial, 5, 200, 3, 3},
        SuscCase{GroupSizeShape::kNormal, 4, 100, 1, 4},
        SuscCase{GroupSizeShape::kUniform, 3, 30, 7, 3},
        SuscCase{GroupSizeShape::kLSkewed, 6, 500, 2, 2},
        SuscCase{GroupSizeShape::kSSkewed, 5, 77, 3, 2}),
    [](const auto& info) {
      const SuscCase& tc = info.param;
      return shape_name(tc.shape) + "_h" + std::to_string(tc.h) + "_n" +
             std::to_string(tc.n) + "_t" + std::to_string(tc.t1) + "_c" +
             std::to_string(tc.c);
    });

// Mixed-ratio ladders (the divisibility generalisation) also work.
TEST(Susc, MixedRatioLadder) {
  const Workload w = make_workload({2, 4, 12, 24}, {3, 4, 6, 10});
  const BroadcastProgram p = schedule_susc(w);
  EXPECT_TRUE(is_valid_program(p, w));
}

// The cursor-and-pointer SUSC must reproduce the paper's rescanning
// Algorithm 2 cell for cell: on seeded random ladders of every group-size
// shape and on random mixed-ratio ladders, from the Theorem 3.1 minimum up
// to three spare channels (where a later group's larger t reopens channels
// an earlier group closed).
TEST(SuscOracle, MatchesReferenceScan) {
  Rng rng(20050618);
  const auto check = [](const Workload& w, const std::string& what) {
    const SlotCount lo = min_channels(w);
    for (SlotCount channels = lo; channels <= lo + 3; ++channels) {
      EXPECT_TRUE(schedule_susc(w, channels) ==
                  schedule_susc_reference(w, channels))
          << what << " channels=" << channels;
    }
  };
  for (const GroupSizeShape shape :
       {GroupSizeShape::kUniform, GroupSizeShape::kNormal,
        GroupSizeShape::kLSkewed, GroupSizeShape::kSSkewed,
        GroupSizeShape::kZipf, GroupSizeShape::kBinomial}) {
    for (int draw = 0; draw < 12; ++draw) {
      const auto h = static_cast<GroupId>(rng.uniform_int(1, 7));
      const SlotCount n = rng.uniform_int(h, 400);
      const SlotCount t1 = rng.uniform_int(1, 6);
      const SlotCount c = rng.uniform_int(2, 3);
      check(make_paper_workload(shape, h, n, t1, c),
            shape_name(shape) + " h=" + std::to_string(h) +
                " n=" + std::to_string(n) + " t1=" + std::to_string(t1) +
                " c=" + std::to_string(c));
    }
  }
  for (int draw = 0; draw < 24; ++draw) {
    std::vector<SlotCount> times{rng.uniform_int(1, 5)};
    std::vector<SlotCount> pages{rng.uniform_int(1, 40)};
    for (std::int64_t g = rng.uniform_int(0, 5); g > 0; --g) {
      times.push_back(times.back() * rng.uniform_int(2, 3));
      pages.push_back(rng.uniform_int(1, 60));
    }
    check(make_workload(times, pages), "mixed draw " + std::to_string(draw));
  }
  // Catalog scale: 10k pages over a 128..1024-slot ladder with Pareto
  // (alpha 1.2) group sizes, the loosest group holding the heavy tail.
  check(make_workload({128, 256, 512, 1024}, {1063, 1406, 2153, 5378}),
        "10k heavy-tailed catalog");
}

}  // namespace
}  // namespace tcsa
