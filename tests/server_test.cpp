// server_test.cpp — loopback acceptance for the live broadcast server:
// deadline validity before/during/after a hot swap, channel switching,
// slow-client eviction, the seam planner, and the tcsa_server_* metrics.
#include <sys/socket.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "server/air_server.hpp"
#include "server/tune_client.hpp"
#include "util/wire.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

Workload paper_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }
Workload grown_workload() { return make_workload({2, 4, 8}, {3, 5, 4}); }

/// Rebuilds the broadcast program a full-mask client observed over one
/// cycle-length window of `generation` frames, starting at the first slot
/// of that generation it saw. The result is a rotation of the aired
/// program; validity is what the client experienced from its tune-in.
BroadcastProgram reconstruct_cycle(const std::vector<ReceivedPage>& pages,
                                   std::uint32_t generation,
                                   SlotCount channels, SlotCount cycle) {
  std::uint64_t first = 0;
  bool found = false;
  for (const ReceivedPage& page : pages) {
    if (page.generation != generation) continue;
    if (!found || page.slot < first) first = page.slot;
    found = true;
  }
  EXPECT_TRUE(found) << "no frames from generation " << generation;
  BroadcastProgram program(channels, cycle);
  for (const ReceivedPage& page : pages) {
    if (page.generation != generation) continue;
    if (page.slot < first || page.slot >= first + static_cast<std::uint64_t>(cycle))
      continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  return program;
}

// The tentpole acceptance: three concurrent sessions (two full-mask
// monitors, one channel switcher), a mid-run hot swap, and not one missed
// deadline anywhere — before, across, or after the swap seam.
TEST(AirServer, LoopbackDeadlinesHoldAcrossChannelSwitchAndHotSwap) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 1200;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options recorder_options =
      harness.client_options(net::kAllChannels);
  recorder_options.record_pages = true;
  TuneClient recorder(recorder_options);
  TuneClient monitor(harness.client_options(net::kAllChannels));
  TuneClient switcher(harness.client_options(1ull << 0));

  std::thread monitor_thread([&] { monitor.run(0); });
  std::thread switcher_thread([&] {
    switcher.run(80);
    switcher.retune(net::kAllChannels);
    switcher.run(0);
  });

  recorder.run(150);
  const SwapReply reply = recorder.request_swap(grown_workload());
  ASSERT_TRUE(reply.accepted) << reply.error;
  EXPECT_EQ(reply.generation, 2u);
  EXPECT_LE(reply.seam_lateness, 0)
      << "SUSC appending pages to the last group must reuse the common "
         "placement, so the seam is clean";
  // Activation lands exactly on a major-cycle boundary of generation 1.
  EXPECT_EQ(reply.activation_slot % 8, 0u);
  recorder.run(0);  // to EOF

  monitor_thread.join();
  switcher_thread.join();

  // Every observer: zero deadline misses, swap seen, receptions flowing.
  for (const TuneClient* client : {&recorder, &monitor}) {
    const TuneSummary summary = client->summary();
    EXPECT_EQ(summary.deadline_misses, 0u);
    EXPECT_EQ(summary.swaps_observed, 1u);
    EXPECT_EQ(summary.generation, 2u);
    ASSERT_EQ(summary.groups.size(), 3u);
    for (const TuneGroupStats& group : summary.groups) {
      EXPECT_GT(group.receptions, 0u);
      EXPECT_LE(group.max_gap, group.expected_time);
    }
  }
  const TuneSummary switched = switcher.summary();
  EXPECT_EQ(switched.deadline_misses, 0u);
  EXPECT_EQ(switched.retunes, 1u);
  EXPECT_GT(switched.frames, 0u);

  // The grown group has one more page and the client saw it air.
  EXPECT_EQ(recorder.workload().total_pages(), 12);

  // Validity of what was actually received, via the model checker: one
  // reconstructed cycle per generation, against that generation's workload.
  const BroadcastProgram before =
      reconstruct_cycle(recorder.pages(), 1, 4, 8);
  const ValidityReport before_report =
      validate_program(before, paper_workload());
  EXPECT_TRUE(before_report.valid) << (before_report.violations.empty()
                                           ? ""
                                           : before_report.violations.front());
  const BroadcastProgram after = reconstruct_cycle(recorder.pages(), 2, 4, 8);
  const ValidityReport after_report =
      validate_program(after, grown_workload());
  EXPECT_TRUE(after_report.valid) << (after_report.violations.empty()
                                          ? ""
                                          : after_report.violations.front());
}

TEST(AirServer, RejectsSwapToAnUnschedulableWorkloadAndStaysOnAir) {
  AirServerConfig config;
  config.slot_us = 300;
  config.max_slots = 4000;
  ServerHarness harness(paper_workload(), config);

  TuneClient client(harness.client_options(net::kAllChannels));
  // 40 pages with t=2 on the current 4 channels: far beyond the bandwidth
  // bound, and --channels is pinned so the server cannot widen.
  const SwapReply reply =
      client.request_swap(make_workload({2}, {40}), /*channels=*/4);
  EXPECT_FALSE(reply.accepted);
  EXPECT_FALSE(reply.error.empty());
  // The old program keeps airing, still meeting deadlines.
  client.run(60);
  const TuneSummary summary = client.summary();
  EXPECT_EQ(summary.generation, 1u);
  EXPECT_EQ(summary.swaps_observed, 0u);
  EXPECT_EQ(summary.deadline_misses, 0u);
}

TEST(AirServer, EvictsASlowClientInsteadOfStallingTheBroadcast) {
  AirServerConfig config;
  // Roomy slots: under TSAN an instrumented healthy client must still
  // drain on schedule, or it would (correctly) be evicted as slow too.
  config.slot_us = 1000;
  config.max_slots = 0;  // run until stopped
  config.session_send_buffer = 4096;
  config.max_session_buffer = 2048;
  ServerHarness harness(paper_workload(), config);

  // A raw socket that subscribes to everything and never reads: the kernel
  // buffers fill, the userspace pending buffer crosses the cap, eviction.
  net::Fd lazy = net::connect_tcp("127.0.0.1", harness.server().port());
  const int small = 4096;
  ASSERT_EQ(::setsockopt(lazy.get(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  std::string tune_payload;
  wire_put_u64(tune_payload, net::kAllChannels);
  std::string tune_frame;
  net::append_frame(tune_frame, net::FrameType::kTune, tune_payload);
  ASSERT_EQ(::send(lazy.get(), tune_frame.data(), tune_frame.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(tune_frame.size()));

  // Meanwhile a healthy client keeps receiving on schedule.
  TuneClient healthy(harness.client_options(net::kAllChannels));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().sessions_evicted() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    healthy.run(20);
  }
  EXPECT_EQ(harness.server().sessions_evicted(), 1u);
  EXPECT_EQ(healthy.summary().deadline_misses, 0u);
}

TEST(PlanSwapSeam, IdenticalProgramsAreSeamFreeAtTheMatchingRotation) {
  const Workload w = paper_workload();
  const BroadcastProgram program = make_schedule(Method::kSusc, w, 4).program;
  // Old program airing at rotation 3: the identity continuation (rotation 3
  // of the same program) keeps every promise exactly.
  const SwapPlan plan = plan_swap_seam(w, program, 3, w, program);
  EXPECT_LE(plan.seam_lateness, 0);
}

TEST(PlanSwapSeam, SuscGrowthKeepsCommonPlacementSeamClean) {
  const Workload w1 = paper_workload();
  const Workload w2 = grown_workload();
  const BroadcastProgram p1 = make_schedule(Method::kSusc, w1, 4).program;
  const BroadcastProgram p2 = make_schedule(Method::kSusc, w2, 4).program;
  const SwapPlan plan = plan_swap_seam(w1, p1, 0, w2, p2);
  EXPECT_EQ(plan.offset, 0);
  EXPECT_LE(plan.seam_lateness, 0);
}

TEST(PlanSwapSeam, ReportsPositiveLatenessWhenNoRotationPreservesPromises) {
  // The old program airs both pages every slot (two channels), so at the
  // boundary both are promised within 1 slot. The new single-channel
  // program alternates them: whichever rotation airs first, one page waits
  // 2 slots — one slot later than promised. The planner must report that
  // honestly rather than pretend a clean seam exists.
  const Workload w = make_workload({2}, {2});
  BroadcastProgram old_program(2, 2);
  old_program.place(0, 0, 0);
  old_program.place(0, 1, 0);
  old_program.place(1, 0, 1);
  old_program.place(1, 1, 1);
  BroadcastProgram new_program(1, 2);
  new_program.place(0, 0, 0);
  new_program.place(0, 1, 1);
  const SwapPlan plan = plan_swap_seam(w, old_program, 0, w, new_program);
  EXPECT_EQ(plan.seam_lateness, 1);
}

TEST(AirServer, ExportsServerMetrics) {
  MetricsDelta metrics;
  {
    AirServerConfig config;
    config.slot_us = 300;
    config.max_slots = 200;
    ServerHarness harness(paper_workload(), config);
    TuneClient client(harness.client_options(net::kAllChannels));
    client.run(50);
    const SwapReply reply = client.request_swap(grown_workload());
    ASSERT_TRUE(reply.accepted) << reply.error;
    client.run(0);
  }

  const obs::MetricsSnapshot delta = metrics.delta();
  EXPECT_GE(delta.counter_value("tcsa_server_sessions_opened_total"), 1u);
  EXPECT_GE(delta.counter_value("tcsa_server_sessions_closed_total"), 1u);
  EXPECT_GE(delta.counter_value("tcsa_server_slots_aired_total"), 200u);
  EXPECT_GT(delta.counter_value("tcsa_server_frames_sent_total"), 0u);
  EXPECT_GT(delta.counter_value("tcsa_server_frames_encoded_total"), 0u);
  EXPECT_LE(delta.counter_value("tcsa_server_frames_encoded_total"),
            delta.counter_value("tcsa_server_frames_sent_total"));
  // Queue-time vs send-time accounting: everything sent was queued first,
  // and a frame's bytes retire (flush) only after the kernel accepted them.
  EXPECT_GT(delta.counter_value("tcsa_server_bytes_queued_total"), 0u);
  EXPECT_GT(delta.counter_value("tcsa_server_bytes_sent_total"), 0u);
  EXPECT_LE(delta.counter_value("tcsa_server_bytes_sent_total"),
            delta.counter_value("tcsa_server_bytes_queued_total"));
  EXPECT_LE(delta.counter_value("tcsa_server_bytes_flushed_total"),
            delta.counter_value("tcsa_server_bytes_sent_total"));
  EXPECT_GT(delta.counter_value("tcsa_server_writev_calls_total"), 0u);
  EXPECT_EQ(delta.counter_value("tcsa_server_swaps_total"), 1u);
  EXPECT_EQ(delta.counter_value("tcsa_server_tunes_total"), 1u);
  const obs::HistogramSnapshot* lag =
      delta.histogram("tcsa_server_slot_lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_GE(lag->total(), 200u);
}

// Zero-copy fan-out acceptance: with several full-mask subscribers, frame
// encoding stays O(channels) — the per-cycle cache encodes each (channel,
// column) body once per generation and slot-patches it afterwards, while
// queued frames scale with the audience.
TEST(AirServer, FanOutSharesOneEncodePerFrameAcrossSessions) {
  MetricsDelta metrics;
  {
    AirServerConfig config;
    config.slot_us = 300;
    config.max_slots = 400;
    ServerHarness harness(paper_workload(), config);
    TuneClient a(harness.client_options(net::kAllChannels));
    TuneClient b(harness.client_options(net::kAllChannels));
    TuneClient c(harness.client_options(net::kAllChannels));
    std::thread ta([&] { a.run(0); });
    std::thread tb([&] { b.run(0); });
    c.run(0);
    ta.join();
    tb.join();
    EXPECT_EQ(a.summary().deadline_misses, 0u);
    EXPECT_EQ(b.summary().deadline_misses, 0u);
    EXPECT_EQ(c.summary().deadline_misses, 0u);
  }

  const obs::MetricsSnapshot delta = metrics.delta();
  const std::uint64_t encoded =
      delta.counter_value("tcsa_server_frames_encoded_total");
  const std::uint64_t sent =
      delta.counter_value("tcsa_server_frames_sent_total");
  ASSERT_GT(encoded, 0u);
  // Three subscribers share each encoded body; even with connect skew and
  // occasional cache misses the fan-out must dominate the encodes.
  EXPECT_GE(sent, 2 * encoded)
      << "per-session copies crept back into the egress path";
  // All three drained cleanly, so send-time accounting converged with
  // queue-time accounting: every queued byte was sent and fully retired.
  EXPECT_EQ(delta.counter_value("tcsa_server_bytes_sent_total"),
            delta.counter_value("tcsa_server_bytes_queued_total"));
  EXPECT_EQ(delta.counter_value("tcsa_server_bytes_flushed_total"),
            delta.counter_value("tcsa_server_bytes_sent_total"));
}

}  // namespace
