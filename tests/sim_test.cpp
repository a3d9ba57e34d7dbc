// Tests for the broadcast-access simulator (the AvgD measurement machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/susc.hpp"
#include "model/appearance_index.hpp"
#include "sim/broadcast_sim.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

namespace tcsa {
namespace {

BroadcastProgram single_page_every(SlotCount spacing, SlotCount cycle) {
  BroadcastProgram p(1, cycle);
  for (SlotCount s = 0; s < cycle; s += spacing) p.place(0, s, 0);
  return p;
}

TEST(Sim, HandComputedWaits) {
  // Page completes at 1, 5 in a cycle of 8.
  BroadcastProgram p(1, 8);
  p.place(0, 0, 0);
  p.place(0, 4, 0);
  const AppearanceIndex idx(p, 1);
  EXPECT_DOUBLE_EQ(wait_for(idx, 0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(wait_for(idx, 0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(wait_for(idx, 0, 4.5), 0.5);
  EXPECT_DOUBLE_EQ(wait_for(idx, 0, 6.0), 3.0);  // wraps to 1 + 8
}

TEST(Sim, MeanWaitMatchesHalfSpacing) {
  // Even spacing g: waits uniform on (0, g], mean g/2.
  const Workload w = make_workload({2}, {1});
  const BroadcastProgram p = single_page_every(4, 16);
  SimConfig config;
  config.requests.count = 50000;
  const SimResult r = simulate_requests(p, w, config);
  EXPECT_NEAR(r.avg_wait, 2.0, 0.05);
}

TEST(Sim, DelayMatchesClosedForm) {
  // g = 8, t = 2: delay mean (8-2)^2/(2*8) = 2.25; miss prob (8-2)/8 = 0.75.
  const Workload w = make_workload({2}, {1});
  const BroadcastProgram p = single_page_every(8, 16);
  SimConfig config;
  config.requests.count = 100000;
  const SimResult r = simulate_requests(p, w, config);
  EXPECT_NEAR(r.avg_delay, 2.25, 0.05);
  EXPECT_NEAR(r.miss_rate, 0.75, 0.01);
  EXPECT_NEAR(r.max_delay, 6.0, 0.05);
}

TEST(Sim, QuantilesOrdered) {
  const Workload w = make_workload({2}, {1});
  const BroadcastProgram p = single_page_every(8, 16);
  SimConfig config;
  config.requests.count = 20000;
  const SimResult r = simulate_requests(p, w, config);
  EXPECT_LE(r.p50_delay, r.p95_delay);
  EXPECT_LE(r.p95_delay, r.p99_delay);
  EXPECT_LE(r.p99_delay, r.max_delay);
}

TEST(Sim, DeterministicInSeed) {
  const Workload w = make_workload({2, 4}, {3, 5});
  const BroadcastProgram p = schedule_susc(w);
  SimConfig a, b;
  a.seed = b.seed = 77;
  a.requests.count = b.requests.count = 1000;
  const SimResult ra = simulate_requests(p, w, a);
  const SimResult rb = simulate_requests(p, w, b);
  EXPECT_DOUBLE_EQ(ra.avg_wait, rb.avg_wait);
  EXPECT_DOUBLE_EQ(ra.avg_delay, rb.avg_delay);
}

TEST(Sim, DifferentSeedsDiffer) {
  const Workload w = make_workload({2}, {1});
  const BroadcastProgram p = single_page_every(8, 16);
  SimConfig a, b;
  a.seed = 1;
  b.seed = 2;
  a.requests.count = b.requests.count = 1000;
  EXPECT_NE(simulate_requests(p, w, a).avg_wait,
            simulate_requests(p, w, b).avg_wait);
}

TEST(Sim, PerGroupDelaysSeparate) {
  // Two groups, same spacing 8; t = 2 suffers, t = 8 does not.
  const Workload w = make_workload({2, 8}, {1, 1});
  BroadcastProgram p(1, 16);
  for (SlotCount s = 0; s < 16; s += 8) p.place(0, s, 0);
  for (SlotCount s = 4; s < 16; s += 8) p.place(0, s, 1);
  SimConfig config;
  config.requests.count = 40000;
  const SimResult r = simulate_requests(p, w, config);
  ASSERT_EQ(r.group_avg_delay.size(), 2u);
  EXPECT_NEAR(r.group_avg_delay[0], 2.25, 0.1);
  EXPECT_NEAR(r.group_avg_delay[1], 0.0, 1e-12);
}

TEST(Sim, EmptyRequestStream) {
  const Workload w = make_workload({2}, {1});
  const BroadcastProgram p = single_page_every(2, 4);
  const AppearanceIndex idx(p, 1);
  const SimResult r = simulate_requests(idx, w, {});
  EXPECT_EQ(r.requests, 0u);
  EXPECT_DOUBLE_EQ(r.avg_delay, 0.0);
}

TEST(Sim, PreGeneratedStreamPath) {
  const Workload w = make_workload({4}, {1});
  const BroadcastProgram p = single_page_every(4, 8);
  const AppearanceIndex idx(p, 1);
  // Completions at 1 and 5 (slots 0 and 4). Arrivals at 0.0 and 2.0 wait
  // 1.0 and 3.0 respectively; both within t = 4.
  const std::vector<Request> requests = {{0, 0.0}, {0, 2.0}};
  const SimResult r = simulate_requests(idx, w, requests);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_DOUBLE_EQ(r.avg_wait, 2.0);
  EXPECT_DOUBLE_EQ(r.avg_delay, 0.0);
  EXPECT_DOUBLE_EQ(r.miss_rate, 0.0);
}

TEST(Sim, BatchedMatchesScalarReference) {
  // The page-batched wait computation must agree with the per-request
  // binary-search path on every statistic, bit for bit, across the paper
  // workloads and both popularity models.
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape, 6, 300, 4, 2);
    const BroadcastProgram p = schedule_susc(w);
    const AppearanceIndex idx(p, w.total_pages());
    for (const Popularity pop : {Popularity::kUniform, Popularity::kZipf}) {
      RequestConfig rc;
      rc.count = 20000;
      rc.popularity = pop;
      Rng rng(static_cast<std::uint64_t>(shape) * 2 +
              static_cast<std::uint64_t>(pop) + 1);
      const std::vector<Request> requests = generate_requests(
          w, static_cast<double>(p.cycle_length()), rc, rng);
      const SimResult batched = simulate_requests(idx, w, requests);
      const SimResult scalar = simulate_requests_reference(idx, w, requests);
      EXPECT_EQ(batched.requests, scalar.requests);
      EXPECT_EQ(batched.avg_wait, scalar.avg_wait) << shape_name(shape);
      EXPECT_EQ(batched.avg_delay, scalar.avg_delay) << shape_name(shape);
      EXPECT_EQ(batched.miss_rate, scalar.miss_rate) << shape_name(shape);
      EXPECT_EQ(batched.p50_delay, scalar.p50_delay) << shape_name(shape);
      EXPECT_EQ(batched.p95_delay, scalar.p95_delay) << shape_name(shape);
      EXPECT_EQ(batched.p99_delay, scalar.p99_delay) << shape_name(shape);
      EXPECT_EQ(batched.max_delay, scalar.max_delay) << shape_name(shape);
      EXPECT_EQ(batched.group_avg_delay, scalar.group_avg_delay)
          << shape_name(shape);
    }
  }
}

TEST(Sim, ZipfStreamStillBounded) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 4, 40, 2, 2);
  const BroadcastProgram p = schedule_susc(w);
  SimConfig config;
  config.requests.count = 5000;
  config.requests.popularity = Popularity::kZipf;
  config.requests.zipf_theta = 1.0;
  const SimResult r = simulate_requests(p, w, config);
  EXPECT_DOUBLE_EQ(r.avg_delay, 0.0);  // SUSC is valid regardless of access
}

}  // namespace
}  // namespace tcsa
