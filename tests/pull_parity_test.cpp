// pull_parity_test.cpp — satellite 1: the LIVE pull plane reproduces the
// sim/hybrid impatient-client model on the same program and workload.
//
// A valid broadcast program never exceeds a page's expected time between
// airings, so with per-page-t_p patience both planes would report a pull
// fraction of ~0 and the comparison would be vacuous. Instead both sides
// run against TIGHTENED deadlines — a workload with every expected time
// halved, used only for the patience/deadline lookup — which makes roughly
// half of all requests miss their window and fall back to the pull path.
//
// Decision rules line up exactly: sim serves a request by broadcast iff
// its continuous wait w <= d (w = k - frac for an airing k slots ahead of
// an arrival uniform inside a slot, so w <= d  <=>  k <= d); the live
// client serves a want iff its page airs within `patience` whole slots of
// the issue slot (k <= patience). Passing patience = d makes both sides
// apply the same threshold to the same program, and the residual
// differences are sampling noise plus sub-slot quantization — hence the
// wide tolerances asserted below.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "server/air_server.hpp"
#include "server/tune_client.hpp"
#include "sim/hybrid.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

TEST(PullParity, LivePlaneMatchesHybridSimOnTightenedDeadlines) {
  // Same program on both sides: SUSC is deterministic, so building it here
  // and letting the server build it again (auto_method off) agree exactly.
  const Workload base = make_workload({4, 8, 16}, {3, 5, 3});   // 11 pages
  const Workload tight = make_workload({2, 4, 8}, {3, 5, 3});   // halved t
  constexpr SlotCount kChannels = 2;
  const ScheduleOutcome outcome =
      make_schedule(Method::kSusc, base, kChannels);

  // --- simulated impatient clients over the tightened deadlines ---
  HybridConfig sim_config;
  sim_config.arrival_rate = 2.0;
  sim_config.horizon = 4000.0;
  sim_config.seed = 7;  // Popularity::kUniform by default
  const HybridResult sim = simulate_hybrid(outcome.program, tight, sim_config);
  // Sanity: the tightened deadlines bite, but not degenerately.
  ASSERT_GT(sim.pull_fraction, 0.2);
  ASSERT_LT(sim.pull_fraction, 0.8);

  // --- the live plane, same program, same decision threshold ---
  AirServerConfig config;
  config.slot_us = 300;
  config.max_slots = 4000;
  config.channels = kChannels;
  config.auto_method = false;
  config.method = Method::kSusc;
  config.pull_channels = 1;
  MetricsDelta metrics;
  ServerHarness harness(base, config);

  TuneClient client(harness.client_options(net::kAllChannels));
  client.run(8);  // settle onto the broadcast clock
  // Uniform page draws; a 3-slot stride is coprime with every group period
  // {4, 8, 16}, so issue slots sweep all phases of every page's airing.
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<PageId> draw(
      0, static_cast<PageId>(base.total_pages()) - 1);
  constexpr int kWants = 220;
  for (int i = 0; i < kWants; ++i) {
    const PageId page = draw(rng);
    client.want_page(page,
                     static_cast<std::int64_t>(tight.expected_time_of(page)));
    ASSERT_FALSE(client.run(3)) << "server left the air mid-experiment";
  }
  client.run(12);  // let the last wants decide (max tightened patience is 8)

  const TuneSummary summary = client.summary();
  const TuneWantStats& wants = summary.wants;
  ASSERT_EQ(wants.issued, static_cast<std::uint64_t>(kWants));
  EXPECT_EQ(wants.undecided, 0u);
  ASSERT_GT(wants.broadcast_served, 0u);
  ASSERT_GT(wants.pulled, 0u);

  // Pull fraction: binomial noise at n=220 is ~0.035; 0.12 also absorbs
  // the sub-slot quantization and issue-phase bias of the live client.
  EXPECT_NEAR(wants.pull_fraction, sim.pull_fraction, 0.12);

  // Broadcast waits: the live client counts whole slots from the issue
  // slot, the sim measures continuous waits from a mid-slot arrival, so
  // the means may differ by up to about half a slot plus noise.
  EXPECT_NEAR(wants.mean_broadcast_wait_slots, sim.avg_broadcast_wait,
              std::max(1.0, 0.35 * sim.avg_broadcast_wait));

  // The timed-out wants exercised the real pull channel, not a stub: the
  // server aired them and the kPull completions came back.
  EXPECT_GE(metrics.counter("tcsa_server_pull_airings_total"), 1u);
  EXPECT_GE(wants.pull_completed, 1u);
  EXPECT_GE(wants.pull_frames, 1u);
}

}  // namespace
