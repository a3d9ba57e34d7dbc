// server_test.cpp — loopback acceptance for the live broadcast server:
// deadline validity before/during/after a hot swap, channel switching,
// slow-client eviction, accept backoff when out of descriptors, the seam
// planner, and the tcsa_server_* metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "net/http_admin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/air_server.hpp"
#include "server/tune_client.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

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

struct RawSwapReply {
  bool accepted = false;
  std::string error;
};

/// Sends `payload` as a kSwap from a fresh connection and waits for the
/// verdict.
RawSwapReply raw_swap(ServerHarness& harness, const std::string& payload) {
  std::string swap_frame;  // raw on purpose: the payload may be malformed
  net::append_frame(swap_frame, net::FrameType::kSwap, payload);
  net::Fd conn = net::connect_tcp("127.0.0.1", harness.server().port());
  EXPECT_EQ(::send(conn.get(), swap_frame.data(), swap_frame.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(swap_frame.size()));
  net::FrameDecoder decoder;
  net::Frame frame;
  for (;;) {
    pollfd readable{conn.get(), POLLIN, 0};
    if (::poll(&readable, 1, 5000) != 1) {
      ADD_FAILURE() << "no swap reply";
      return {};
    }
    char buffer[4096];
    const ssize_t n = ::recv(conn.get(), buffer, sizeof(buffer), 0);
    if (n <= 0) {
      ADD_FAILURE() << "server closed before the swap reply";
      return {};
    }
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (decoder.next(frame)) {
      if (frame.type != net::FrameType::kSwapReply) continue;
      const auto reply = net::decode<net::SwapReplyMsg>(frame.payload);
      return {reply.accepted, std::string(reply.error)};
    }
  }
}

TEST(AirServer, RejectsSwapToAnUnschedulableWorkloadAndStaysOnAir) {
  MetricsDelta metrics;
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

  // A raw kSwap whose group page counts overflow their int64 sum: it must
  // come back as a rejected swap, not unwind the airing loop.
  const std::uint64_t rejected_before =
      metrics.counter("tcsa_server_swap_rejected_total");
  const std::string header = workload_to_binary(paper_workload()).substr(0, 5);
  std::string overflow;
  wire_put_u32(overflow, 0);  // keep the current channel count
  wire_put_u8(overflow, net::kSwapMethodAuto);
  overflow += header;
  wire_put_u32(overflow, 2);  // groups {t=1, pages=2}, {t=2, pages=INT64_MAX}
  wire_put_i64(overflow, 1);
  wire_put_i64(overflow, 2);
  wire_put_i64(overflow, 2);
  wire_put_i64(overflow, std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(raw_swap(harness, overflow).accepted)
      << "hostile swap accepted";
  EXPECT_EQ(metrics.counter("tcsa_server_swap_rejected_total"),
            rejected_before + 1);

  // 42 bytes asking for 65 channels and the codec's largest workload
  // (2^26 pages): the channel check must answer before anything decodes
  // the workload, or the airing loop stalls for the decode (~0.2 s).
  std::string oversized;
  wire_put_u32(oversized, 65);
  wire_put_u8(oversized, net::kSwapMethodAuto);
  oversized += header;
  wire_put_u32(oversized, 1);  // one group {t=1, pages=2^26}
  wire_put_i64(oversized, 1);
  wire_put_i64(oversized, std::int64_t{1} << 26);
  const auto sent = std::chrono::steady_clock::now();
  const RawSwapReply verdict = raw_swap(harness, oversized);
  const auto waited = std::chrono::steady_clock::now() - sent;
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.error.find("64-channel mask limit"), std::string::npos)
      << verdict.error;
  EXPECT_LT(waited, std::chrono::milliseconds(50));

  // The old program keeps airing, still meeting deadlines.
  client.run(60);
  const TuneSummary summary = client.summary();
  EXPECT_EQ(summary.generation, 1u);
  EXPECT_EQ(summary.swaps_observed, 0u);
  EXPECT_EQ(summary.deadline_misses, 0u);
}

// A swap waiting for its cycle boundary owns the next generation: a second
// kSwap would be planned against the program about to leave the air and
// would replace the pending one under the same id, so the first requester's
// generation would never air. One 1000-slot cycle puts the boundary far
// beyond both round trips.
TEST(AirServer, RejectsASwapWhileAnotherWaitsForItsBoundary) {
  AirServerConfig config;
  config.slot_us = 500;
  config.max_slots = 1200;
  ServerHarness harness(make_workload({4, 1000}, {2, 10}), config);
  TuneClient client(harness.client_options(net::kAllChannels));

  const SwapReply first =
      client.request_swap(make_workload({4, 1000}, {2, 11}));
  ASSERT_TRUE(first.accepted) << first.error;
  EXPECT_EQ(first.generation, 2u);
  EXPECT_EQ(first.activation_slot, 1000u);

  const SwapReply second =
      client.request_swap(make_workload({8, 1000}, {2, 10}));
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(second.generation, 0u);
  EXPECT_NE(second.error.find("generation 2 activates at slot 1000"),
            std::string::npos)
      << second.error;

  client.run(0);  // to EOF, past the boundary
  const TuneSummary summary = client.summary();
  EXPECT_EQ(summary.generation, first.generation);
  ASSERT_EQ(summary.groups.size(), 2u);
  EXPECT_EQ(summary.groups[0].expected_time, 4)
      << "the first request's workload is the one that aired";
  EXPECT_EQ(summary.swaps_observed, 1u);
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
  const std::string tune_frame = net::encode(net::TuneMsg{net::kAllChannels});
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

/// Lowers the soft descriptor limit to the lowest free descriptor number,
/// so the process can open nothing new; restores it on scope exit.
class NoFreeDescriptors {
 public:
  NoFreeDescriptors() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::dup(STDERR_FILENO);
    ::close(lowest_free);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  }
  ~NoFreeDescriptors() { restore(); }
  void restore() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

// Running out of descriptors must not take the broadcast off air: the
// accepting shard, and the admin plane on loop 0, stop polling their
// listeners for a slot (level-triggered, they would spin the loop), the
// tuned audience keeps every deadline, and the connections waiting in the
// kernel backlogs are served once descriptors free up.
TEST(AirServer, OutOfDescriptorsBacksOffAcceptAndStaysOnAir) {
  MetricsDelta metrics;
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  config.admin_port = 0;
  ServerHarness harness(paper_workload(), config);
  TuneClient tuned(harness.client_options(net::kAllChannels));
  const auto connect_local = [](const net::Fd& fd, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    return ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  };
  net::Fd waiting(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  net::Fd scraper(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(waiting.valid());
  ASSERT_TRUE(scraper.valid());

  NoFreeDescriptors limit;
  // The admin listener alone first, so only it can raise the counter.
  ASSERT_EQ(connect_local(scraper, harness.server().admin_port()), 0);
  std::uint64_t aired_before = harness.server().slots_aired();
  tuned.run(20);
  const std::uint64_t admin_backoffs =
      metrics.counter("tcsa_server_accept_backoffs_total");
  EXPECT_GT(admin_backoffs, 0u) << "admin listener never backed off";
  EXPECT_GE(harness.server().slots_aired(), aired_before + 15);

  ASSERT_EQ(connect_local(waiting, harness.server().port()), 0);
  aired_before = harness.server().slots_aired();
  tuned.run(40);
  EXPECT_GT(metrics.counter("tcsa_server_accept_backoffs_total"),
            admin_backoffs);
  EXPECT_GE(harness.server().slots_aired(), aired_before + 30);
  EXPECT_EQ(tuned.summary().deadline_misses, 0u);
  limit.restore();

  pollfd readable{waiting.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 5000), 1) << "backlogged client never served";
  char buffer[4096];
  const ssize_t n = ::recv(waiting.get(), buffer, sizeof(buffer), 0);
  ASSERT_GT(n, 0);
  net::FrameDecoder decoder;
  decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  net::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kHello);

  const std::string request = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(scraper.get(), request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  pollfd answered{scraper.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&answered, 1, 5000), 1) << "backlogged scrape never served";
  const ssize_t got = ::recv(scraper.get(), buffer, sizeof(buffer), 0);
  ASSERT_GT(got, 0);
  EXPECT_EQ(std::string_view(buffer, static_cast<std::size_t>(got)).substr(0, 12),
            "HTTP/1.0 200");
}

/// Checks the recorded trace: `parent` was recorded once, and each of
/// `stages` once inside it, on the parent's thread and in this order.
void expect_stage_spans(const std::string& parent,
                        std::initializer_list<const char*> stages) {
  ASSERT_EQ(obs::trace_spans_dropped(), 0u);
  struct Span {
    std::uint64_t start = 0, end = 0, tid = 0;
  };
  std::map<std::string, std::vector<Span>> spans;
  std::string trace;
  obs::write_chrome_trace(trace, obs::this_process("test"));
  const obs::JsonValue doc = obs::json_parse(trace);
  for (const obs::JsonValue& event :
       doc.at("traceEvents").expect_array("traceEvents").array) {
    const std::string& name = event.at("name").expect_string("name");
    const std::uint64_t start = event.at("ts").expect_uint("ts");
    spans[name].push_back(Span{start, start + event.at("dur").expect_uint("dur"),
                               event.at("tid").expect_uint("tid")});
  }
  ASSERT_EQ(spans[parent].size(), 1u);
  const Span outer = spans[parent].front();
  std::uint64_t previous_end = outer.start;
  for (const char* stage : stages) {
    // Start-up and a swap share the planning stages, so only the spans
    // inside this parent count.
    std::vector<Span> inside;
    for (const Span& span : spans[stage])
      if (span.tid == outer.tid && span.start >= outer.start &&
          span.end <= outer.end)
        inside.push_back(span);
    ASSERT_EQ(inside.size(), 1u) << stage;
    const Span& child = inside.front();
    EXPECT_GE(child.start, previous_end) << stage;
    previous_end = child.end;
  }
}

// A traced swap names the stage a slow swap spent its time in: the
// worker's server.reschedule span holds one child span per stage, in
// order, on the worker's thread.
TEST(AirServer, TracedSwapSpansEachWorkerStage) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  {
    AirServerConfig config;
    config.slot_us = 300;
    config.max_slots = 400;
    ServerHarness harness(paper_workload(), config);
    TuneClient client(harness.client_options(net::kAllChannels));
    EXPECT_TRUE(client.request_swap(grown_workload()).accepted);
  }
  obs::set_tracing_enabled(false);
  expect_stage_spans("server.reschedule",
                     {"server.plan.schedule", "server.plan.validate",
                      "server.plan.seam"});
}

// Likewise a traced start: the constructor's server.start span holds one
// child span per start-up stage.
TEST(AirServer, TracedStartSpansEachStage) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  {
    AirServerConfig config;
    config.slot_us = 300;
    config.max_slots = 20;
    ServerHarness harness(paper_workload(), config);
  }
  obs::set_tracing_enabled(false);
  expect_stage_spans("server.start",
                     {"server.plan.schedule", "server.plan.validate",
                      "server.start.listen", "server.start.egress"});
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

// The interval sweep must pick exactly the rotation the rotation scan
// picks: the first seam-clean one, or failing that the first that
// minimizes the lateness. Pairs are seeded random ladders, scheduled by
// SUSC at or above the Theorem 3.1 minimum and by PAMAD below it, at
// random boundary offsets; the next catalog may grow, shrink or re-time.
TEST(PlanSwapSeamOracle, MatchesRotationScan) {
  Rng rng(7001);
  const auto random_workload = [&] {
    std::vector<SlotCount> times{rng.uniform_int(1, 4)};
    std::vector<SlotCount> pages{rng.uniform_int(1, 12)};
    for (std::int64_t g = rng.uniform_int(0, 4); g > 0; --g) {
      times.push_back(times.back() * rng.uniform_int(2, 3));
      pages.push_back(rng.uniform_int(1, 30));
    }
    return make_workload(times, pages);
  };
  const auto schedule = [&](const Workload& w, bool pamad) {
    const SlotCount bound = min_channels(w);
    if (!pamad)
      return make_schedule(Method::kSusc, w, bound + rng.uniform_int(0, 2))
          .program;
    return make_schedule(Method::kPamad, w,
                         rng.uniform_int(1, std::max<SlotCount>(1, bound - 1)))
        .program;
  };
  int clean = 0;
  int unclean = 0;
  for (int draw = 0; draw < 300; ++draw) {
    const int kind = draw % 3;  // SUSC->SUSC, SUSC->PAMAD, PAMAD->PAMAD
    const Workload w1 = random_workload();
    const Workload w2 = rng.uniform_int(0, 3) == 0 ? w1 : random_workload();
    const BroadcastProgram p1 = schedule(w1, kind == 2);
    const BroadcastProgram p2 = schedule(w2, kind != 0);
    const SlotCount offset = rng.uniform_int(0, p1.cycle_length() - 1);
    const SwapPlan fast = plan_swap_seam(w1, p1, offset, w2, p2);
    const SwapPlan ref = plan_swap_seam_reference(w1, p1, offset, w2, p2);
    EXPECT_EQ(fast.offset, ref.offset) << "draw " << draw;
    EXPECT_EQ(fast.seam_lateness, ref.seam_lateness) << "draw " << draw;
    (ref.seam_lateness <= 0 ? clean : unclean) += 1;
  }
  // Both branches of the tie rule were exercised.
  EXPECT_GT(clean, 0);
  EXPECT_GT(unclean, 0);

  // Catalog scale: 10k pages swapped from Pareto to lognormal group sizes
  // on the same 128..1024-slot ladder, both scheduled by SUSC.
  const Workload pareto =
      make_workload({128, 256, 512, 1024}, {1063, 1406, 2153, 5378});
  const Workload lognormal =
      make_workload({128, 256, 512, 1024}, {567, 1304, 2465, 5664});
  const SlotCount channels =
      std::max(min_channels(pareto), min_channels(lognormal));
  const BroadcastProgram big1 =
      make_schedule(Method::kSusc, pareto, channels).program;
  const BroadcastProgram big2 =
      make_schedule(Method::kSusc, lognormal, channels).program;
  for (const SlotCount offset : {0, 311, 1023}) {
    const SwapPlan fast = plan_swap_seam(pareto, big1, offset, lognormal, big2);
    const SwapPlan ref =
        plan_swap_seam_reference(pareto, big1, offset, lognormal, big2);
    EXPECT_EQ(fast.offset, ref.offset) << "offset " << offset;
    EXPECT_EQ(fast.seam_lateness, ref.seam_lateness) << "offset " << offset;
  }
}

// The same agreement on raw random grids, which no scheduler would emit:
// pages on several channels (some in one column), empty cells, pages
// missing from either program, old and new catalogs of different sizes in
// both directions, and boundary offsets past the old cycle.
TEST(PlanSwapSeamOracle, MatchesRotationScanOnRandomGrids) {
  Rng rng(2206);
  const auto random_workload = [&] {
    std::vector<SlotCount> times{rng.uniform_int(1, 4)};
    std::vector<SlotCount> pages{rng.uniform_int(1, 10)};
    for (std::int64_t g = rng.uniform_int(0, 2); g > 0; --g) {
      times.push_back(times.back() * 2);
      pages.push_back(rng.uniform_int(1, 15));
    }
    return make_workload(times, pages);
  };
  const auto random_program = [&](const Workload& w) {
    BroadcastProgram p(rng.uniform_int(1, 4),
                       rng.uniform_int(1, 2 * w.max_expected_time()));
    const double fill = rng.uniform_real(0.3, 1.0);
    for (SlotCount ch = 0; ch < p.channels(); ++ch)
      for (SlotCount s = 0; s < p.cycle_length(); ++s)
        if (rng.bernoulli(fill))
          p.place(ch, s, static_cast<PageId>(
                             rng.uniform_int(0, w.total_pages() - 1)));
    return p;
  };
  int grows = 0, shrinks = 0, past_cycle = 0, clean = 0, unclean = 0;
  for (int draw = 0; draw < 400; ++draw) {
    const Workload w1 = random_workload();
    const Workload w2 = random_workload();
    const BroadcastProgram p1 = random_program(w1);
    const BroadcastProgram p2 = random_program(w2);
    const SlotCount offset = rng.uniform_int(0, 3 * p1.cycle_length());
    const SwapPlan fast = plan_swap_seam(w1, p1, offset, w2, p2);
    const SwapPlan ref = plan_swap_seam_reference(w1, p1, offset, w2, p2);
    EXPECT_EQ(fast.offset, ref.offset) << "draw " << draw;
    EXPECT_EQ(fast.seam_lateness, ref.seam_lateness) << "draw " << draw;
    grows += w2.total_pages() > w1.total_pages();
    shrinks += w2.total_pages() < w1.total_pages();
    past_cycle += offset >= p1.cycle_length();
    (ref.seam_lateness <= 0 ? clean : unclean) += 1;
  }
  EXPECT_GT(grows, 0);
  EXPECT_GT(shrinks, 0);
  EXPECT_GT(past_cycle, 0);
  EXPECT_GT(clean, 0);
  EXPECT_GT(unclean, 0);
}

TEST(PlanSwapSeamOracle, UnknownPageThrowsLikeTheRotationScan) {
  const Workload w = make_workload({2}, {2});
  BroadcastProgram good(1, 2);
  good.place(0, 0, 0);
  good.place(0, 1, 1);
  BroadcastProgram bad(1, 2);
  bad.place(0, 0, 0);
  bad.place(0, 1, 2);  // page 2 >= n
  EXPECT_THROW(plan_swap_seam(w, bad, 0, w, good), std::invalid_argument);
  EXPECT_THROW(plan_swap_seam_reference(w, bad, 0, w, good),
               std::invalid_argument);
  EXPECT_THROW(plan_swap_seam(w, good, 0, w, bad), std::invalid_argument);
  EXPECT_THROW(plan_swap_seam_reference(w, good, 0, w, bad),
               std::invalid_argument);
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
  EXPECT_GE(lag->values.count(), 200u);
}

// /slots?max= takes only a whole non-negative number: a negative, partly
// numeric or non-numeric max is a 400, not a wrapped or zero (whole-ring)
// read.
TEST(AirServer, SlotsRefusesAMaxThatIsNotANumber) {
  AirServerConfig config;
  config.slot_us = 1000;
  config.admin_port = 0;
  ServerHarness harness(paper_workload(), config);
  const std::uint16_t port = harness.server().admin_port();
  for (const char* query : {"/slots?max=-1", "/slots?max=abc",
                            "/slots?max=5x", "/slots?max=",
                            "/slots?max=99999999999999999999999"})
    EXPECT_EQ(net::http_get("127.0.0.1", port, query).status, 400) << query;
  const net::HttpResponse ok = net::http_get("127.0.0.1", port, "/slots?max=2");
  EXPECT_EQ(ok.status, 200);
  EXPECT_LE(obs::json_parse(ok.body).at("slots").array.size(), 2u);
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
