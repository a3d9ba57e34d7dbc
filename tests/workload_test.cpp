// Tests for src/workload: Figure-3 distributions, the Section-2 deadline
// rearrangement, and request generation.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "workload/distributions.hpp"
#include "workload/rearrange.hpp"
#include "workload/requests.hpp"

namespace tcsa {
namespace {

// ------------------------------------------------------------ distributions

TEST(Distributions, PaperShapesAreTheFigureFive4) {
  const auto shapes = paper_shapes();
  ASSERT_EQ(shapes.size(), 4u);
  EXPECT_EQ(shapes[0], GroupSizeShape::kNormal);
  EXPECT_EQ(shapes[1], GroupSizeShape::kLSkewed);
  EXPECT_EQ(shapes[2], GroupSizeShape::kSSkewed);
  EXPECT_EQ(shapes[3], GroupSizeShape::kUniform);
}

class AllShapes : public ::testing::TestWithParam<GroupSizeShape> {};

TEST_P(AllShapes, SumsToNWithNoEmptyGroup) {
  for (const GroupId h : {1, 2, 3, 8, 16}) {
    for (const SlotCount n : {static_cast<SlotCount>(h), SlotCount{100},
                              SlotCount{1000}, SlotCount{1003}}) {
      const auto sizes = group_sizes(GetParam(), h, n);
      ASSERT_EQ(static_cast<GroupId>(sizes.size()), h);
      EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), SlotCount{0}), n);
      for (const SlotCount s : sizes) EXPECT_GE(s, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllShapes,
    ::testing::Values(GroupSizeShape::kUniform, GroupSizeShape::kNormal,
                      GroupSizeShape::kLSkewed, GroupSizeShape::kSSkewed,
                      GroupSizeShape::kZipf, GroupSizeShape::kBinomial),
    [](const auto& info) { return shape_name(info.param); });

TEST(Distributions, UniformIsFlat) {
  const auto sizes = group_sizes(GroupSizeShape::kUniform, 8, 1000);
  for (const SlotCount s : sizes) EXPECT_EQ(s, 125);
}

TEST(Distributions, NormalPeaksInTheMiddle) {
  const auto sizes = group_sizes(GroupSizeShape::kNormal, 8, 1000);
  const SlotCount edge = std::max(sizes.front(), sizes.back());
  const SlotCount mid = std::max(sizes[3], sizes[4]);
  EXPECT_GT(mid, edge);
  // Symmetric-ish: mirrored groups close in size.
  for (int g = 0; g < 4; ++g)
    EXPECT_NEAR(static_cast<double>(sizes[static_cast<std::size_t>(g)]),
                static_cast<double>(sizes[static_cast<std::size_t>(7 - g)]),
                2.0);
}

TEST(Distributions, LSkewedFrontLoaded) {
  const auto sizes = group_sizes(GroupSizeShape::kLSkewed, 8, 1000);
  for (std::size_t g = 1; g < sizes.size(); ++g)
    EXPECT_LE(sizes[g], sizes[g - 1]);
  EXPECT_GT(sizes.front(), sizes.back() * 10);
}

TEST(Distributions, SSkewedBackLoaded) {
  const auto sizes = group_sizes(GroupSizeShape::kSSkewed, 8, 1000);
  for (std::size_t g = 1; g < sizes.size(); ++g)
    EXPECT_GE(sizes[g], sizes[g - 1]);
  EXPECT_GT(sizes.back(), sizes.front() * 10);
}

TEST(Distributions, SAndLAreMirrors) {
  const auto l = group_sizes(GroupSizeShape::kLSkewed, 8, 1000);
  const auto s = group_sizes(GroupSizeShape::kSSkewed, 8, 1000);
  for (std::size_t g = 0; g < 8; ++g) EXPECT_EQ(l[g], s[7 - g]);
}

TEST(Distributions, RejectsBadArgs) {
  EXPECT_THROW(group_sizes(GroupSizeShape::kUniform, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(group_sizes(GroupSizeShape::kUniform, 5, 4),
               std::invalid_argument);
}

TEST(Distributions, PaperWorkloadMatchesFigure4) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  EXPECT_EQ(w.group_count(), 8);
  EXPECT_EQ(w.total_pages(), 1000);
  const SlotCount expected_times[] = {4, 8, 16, 32, 64, 128, 256, 512};
  for (GroupId g = 0; g < 8; ++g)
    EXPECT_EQ(w.expected_time(g), expected_times[g]);
}

TEST(Distributions, PaperWorkloadCustomLadder) {
  const Workload w =
      make_paper_workload(GroupSizeShape::kUniform, 3, 30, 2, 3);
  EXPECT_EQ(w.expected_time(0), 2);
  EXPECT_EQ(w.expected_time(1), 6);
  EXPECT_EQ(w.expected_time(2), 18);
}

TEST(Distributions, PaperWorkloadRejectsBadLadder) {
  EXPECT_THROW(make_paper_workload(GroupSizeShape::kUniform, 8, 1000, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(make_paper_workload(GroupSizeShape::kUniform, 8, 1000, 4, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- rearrange

TEST(Rearrange, PaperSection2Example) {
  // Times {2,3,4,6,9} -> assigned {2,2,4,4,8}, groups {2:2, 4:2, 8:1}.
  const auto result = rearrange_expected_times({2, 3, 4, 6, 9}, 2);
  EXPECT_EQ(result.assigned_time,
            (std::vector<SlotCount>{2, 2, 4, 4, 8}));
  const Workload& w = result.workload;
  ASSERT_EQ(w.group_count(), 3);
  EXPECT_EQ(w.expected_time(0), 2);
  EXPECT_EQ(w.expected_time(1), 4);
  EXPECT_EQ(w.expected_time(2), 8);
  EXPECT_EQ(w.pages_in_group(0), 2);
  EXPECT_EQ(w.pages_in_group(1), 2);
  EXPECT_EQ(w.pages_in_group(2), 1);
}

TEST(Rearrange, NeverRoundsUp) {
  const auto result =
      rearrange_expected_times({5, 7, 11, 13, 29, 100, 3}, 2);
  for (std::size_t i = 0; i < result.assigned_time.size(); ++i) {
    EXPECT_LE(result.assigned_time[i],
              (std::vector<SlotCount>{5, 7, 11, 13, 29, 100, 3})[i]);
  }
}

TEST(Rearrange, AssignedTimesAreOnLadder) {
  const auto result = rearrange_expected_times({4, 9, 17, 33, 64}, 2);
  for (const SlotCount t : result.assigned_time) {
    // Every assigned time is 4 * 2^k.
    SlotCount v = t;
    while (v > 4) {
      EXPECT_EQ(v % 2, 0);
      v /= 2;
    }
    EXPECT_EQ(v, 4);
  }
}

TEST(Rearrange, PageMappingIsConsistent) {
  const std::vector<SlotCount> times = {2, 3, 4, 6, 9};
  const auto result = rearrange_expected_times(times, 2);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const PageId page = result.page_of_input[i];
    EXPECT_EQ(result.workload.expected_time_of(page), result.assigned_time[i]);
  }
}

TEST(Rearrange, TighteningRatioReflectsLoss) {
  // All times already on the ladder: no loss.
  const auto exact = rearrange_expected_times({2, 4, 8}, 2);
  EXPECT_DOUBLE_EQ(exact.mean_tightening_ratio, 1.0);
  // 3 -> 2 is a 2/3 ratio.
  const auto lossy = rearrange_expected_times({2, 3}, 2);
  EXPECT_NEAR(lossy.mean_tightening_ratio, (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(Rearrange, SingleTimeYieldsSingleGroup) {
  const auto result = rearrange_expected_times({7, 7, 7}, 2);
  EXPECT_EQ(result.workload.group_count(), 1);
  EXPECT_EQ(result.workload.expected_time(0), 7);
  EXPECT_EQ(result.workload.pages_in_group(0), 3);
}

TEST(Rearrange, RejectsBadInput) {
  EXPECT_THROW(rearrange_expected_times({}, 2), std::invalid_argument);
  EXPECT_THROW(rearrange_expected_times({0, 2}, 2), std::invalid_argument);
  EXPECT_THROW(rearrange_expected_times({2, 4}, 1), std::invalid_argument);
}

TEST(Rearrange, BestRatioPrefersExactLadder) {
  // {2,6,18} fits c = 3 exactly; c = 2 would cost (2/2 + 4/6 + 16/18)/3.
  EXPECT_EQ(best_ladder_ratio({2, 6, 18}, 8), 3);
  // Already a power-of-two ladder.
  EXPECT_EQ(best_ladder_ratio({4, 8, 16, 32}, 8), 2);
}

TEST(Rearrange, BestRatioTieKeepsSmallest) {
  // With a single distinct time every ratio scores 1.0; pick 2.
  EXPECT_EQ(best_ladder_ratio({5, 5, 5}, 8), 2);
}

// ----------------------------------------------------------------- requests

TEST(Requests, CountAndWindowRespected) {
  const Workload w = make_workload({2, 4}, {3, 5});
  Rng rng(1);
  RequestConfig config;
  config.count = 500;
  const auto requests = generate_requests(w, 100.0, config, rng);
  ASSERT_EQ(requests.size(), 500u);
  for (const Request& r : requests) {
    EXPECT_GE(r.arrival, 0.0);
    EXPECT_LT(r.arrival, 100.0);
    EXPECT_LT(r.page, w.total_pages());
  }
}

TEST(Requests, DeterministicInSeed) {
  const Workload w = make_workload({2, 4}, {3, 5});
  RequestConfig config;
  config.count = 100;
  Rng rng1(9), rng2(9);
  const auto a = generate_requests(w, 50.0, config, rng1);
  const auto b = generate_requests(w, 50.0, config, rng2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].page, b[i].page);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
  }
}

TEST(Requests, UniformPopularityCoversAllPages) {
  const Workload w = make_workload({2, 4}, {4, 4});
  Rng rng(3);
  RequestConfig config;
  config.count = 4000;
  const auto requests = generate_requests(w, 10.0, config, rng);
  std::vector<int> hits(8, 0);
  for (const Request& r : requests) ++hits[r.page];
  for (const int h : hits) EXPECT_GT(h, 4000 / 8 / 2);
}

TEST(Requests, ZipfSkewsTowardLowIds) {
  const Workload w = make_workload({2}, {100});
  Rng rng(5);
  RequestConfig config;
  config.count = 20000;
  config.popularity = Popularity::kZipf;
  config.zipf_theta = 1.0;
  const auto requests = generate_requests(w, 10.0, config, rng);
  int low = 0, high = 0;
  for (const Request& r : requests) (r.page < 10 ? low : high)++;
  EXPECT_GT(low, high);  // 10% of pages draw over half the accesses
}

TEST(Requests, PoissonArrivalsIncreaseAndMatchRate) {
  const Workload w = make_workload({2}, {5});
  Rng rng(7);
  RequestConfig config;
  config.count = 20000;
  config.arrivals = ArrivalProcess::kPoisson;
  config.poisson_rate = 2.0;
  const auto requests = generate_requests(w, 1.0, config, rng);
  for (std::size_t i = 1; i < requests.size(); ++i)
    EXPECT_GE(requests[i].arrival, requests[i - 1].arrival);
  const double horizon = requests.back().arrival;
  EXPECT_NEAR(static_cast<double>(requests.size()) / horizon, 2.0, 0.1);
}

TEST(Requests, AccessWeightsUniformVsZipf) {
  const Workload w = make_workload({2}, {10});
  const auto uniform = access_weights(w, Popularity::kUniform, 0.8);
  EXPECT_EQ(uniform.size(), 10u);
  for (const double v : uniform) EXPECT_DOUBLE_EQ(v, 1.0);
  const auto zipf = access_weights(w, Popularity::kZipf, 0.8);
  EXPECT_GT(zipf.front(), zipf.back());
}

TEST(Requests, RejectsBadWindow) {
  const Workload w = make_workload({2}, {1});
  Rng rng(1);
  RequestConfig config;
  EXPECT_THROW(generate_requests(w, 0.0, config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
