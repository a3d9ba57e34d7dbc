// multiloop_test.cpp — invariants of the sharded (loops > 1) air server:
// session conservation across loop shards under churn, per-loop slow-client
// eviction, announce exactly-once per session regardless of owning loop,
// hello, ack and announce agreeing with the stream they precede,
// broadcast validity at four loops, one encode per aired channel per slot,
// identical bytes for full-mask and one-channel sessions, no stale frame
// across a hot swap, an in-process loadgen smoke run, and its RSS probe.
#include <sys/socket.h>
#include <sys/time.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "server/air_server.hpp"
#include "server/loadgen.hpp"
#include "server/tune_client.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

Workload paper_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }
Workload grown_workload() { return make_workload({2, 4, 8}, {3, 5, 4}); }

std::size_t live_sessions(const AirServer& server) {
  const std::vector<std::size_t> per_loop = server.sessions_per_loop();
  return std::accumulate(per_loop.begin(), per_loop.end(), std::size_t{0});
}

/// Polls until the shard-summed session count settles at `expected`
/// (accepts and closes propagate through loop threads asynchronously).
void wait_for_sessions(const AirServer& server, std::size_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live_sessions(server) != expected &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(live_sessions(server), expected);
}

// Sessions are conserved across the shards: however the kernel spreads
// accepts, the per-loop counts always sum to the number of open
// connections — through a full open/close/reopen churn cycle.
TEST(MultiLoop, SessionCountsAcrossShardsSumToLiveConnectionsUnderChurn) {
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);
  ASSERT_EQ(harness.server().loops(), 4u);
  ASSERT_EQ(harness.server().sessions_per_loop().size(), 4u);

  std::vector<net::Fd> conns;
  for (int i = 0; i < 32; ++i)
    conns.push_back(net::connect_tcp("127.0.0.1", harness.server().port()));
  wait_for_sessions(harness.server(), 32);

  conns.resize(16);  // close half; shards notice via EOF
  wait_for_sessions(harness.server(), 16);

  for (int i = 0; i < 8; ++i)  // reopen some
    conns.push_back(net::connect_tcp("127.0.0.1", harness.server().port()));
  wait_for_sessions(harness.server(), 24);

  conns.clear();
  wait_for_sessions(harness.server(), 0);
}

// The eviction boundary is enforced by the shard that owns the slow
// session, wherever the kernel placed it — and healthy sessions on the
// other shards keep their deadlines.
TEST(MultiLoop, OwningShardEvictsItsSlowClient) {
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  config.loops = 4;
  config.session_send_buffer = 4096;
  config.max_session_buffer = 2048;
  ServerHarness harness(paper_workload(), config);

  net::Fd lazy = net::connect_tcp("127.0.0.1", harness.server().port());
  const int small = 4096;
  ASSERT_EQ(::setsockopt(lazy.get(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  const std::string tune_frame = net::encode(net::TuneMsg{net::kAllChannels});
  ASSERT_EQ(::send(lazy.get(), tune_frame.data(), tune_frame.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(tune_frame.size()));

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

// A hot swap's announce crosses from loop 0 to every shard as one token;
// each session must hear about the new generation exactly once, whichever
// loop owns it.
TEST(MultiLoop, EverySessionSeesOneAnnouncePerSwap) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 2000;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  constexpr int kClients = 8;
  std::vector<std::unique_ptr<TuneClient>> clients;
  for (int i = 0; i < kClients; ++i)
    clients.push_back(std::make_unique<TuneClient>(
        harness.client_options(net::kAllChannels)));
  std::vector<std::thread> runners;
  for (const auto& client : clients)
    runners.emplace_back([&client] { client->run(0); });

  TuneClient swapper(harness.client_options(0));
  const SwapReply reply = swapper.request_swap(grown_workload());
  ASSERT_TRUE(reply.accepted) << reply.error;
  EXPECT_EQ(reply.generation, 2u);

  for (std::thread& runner : runners) runner.join();
  for (const auto& client : clients) {
    const TuneSummary summary = client->summary();
    EXPECT_EQ(summary.swaps_observed, 1u)
        << "announce must reach each session exactly once";
    EXPECT_EQ(summary.generation, 2u);
    EXPECT_EQ(summary.deadline_misses, 0u);
  }
}

// A session that never tuned (mask 0) is in no slot's fan-out, so only the
// announce path itself can flush the swap's kAnnounce to it — at one loop
// and on worker shards alike.
TEST(MultiLoop, UntunedSessionHearsTheAnnounceAtActivation) {
  for (const std::size_t loops : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    AirServerConfig config;
    config.slot_us = 1000;
    config.max_slots = 0;
    config.loops = loops;
    ServerHarness harness(paper_workload(), config);

    net::Fd idle = net::connect_tcp("127.0.0.1", harness.server().port());
    const timeval timeout{0, 100'000};
    ASSERT_EQ(::setsockopt(idle.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    TuneClient swapper(harness.client_options(0));
    const SwapReply reply = swapper.request_swap(grown_workload());
    ASSERT_TRUE(reply.accepted) << reply.error;

    net::FrameDecoder decoder;
    net::Frame frame;
    bool announced = false;
    std::uint64_t heard_by_slot = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!announced && std::chrono::steady_clock::now() < deadline) {
      char buffer[4096];
      const ssize_t n = ::recv(idle.get(), buffer, sizeof(buffer), 0);
      if (n == 0) break;
      if (n > 0)
        decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      while (!announced && decoder.next(frame)) {
        EXPECT_NE(frame.type, net::FrameType::kPage) << "mask 0 airs nothing";
        if (frame.type != net::FrameType::kAnnounce) continue;
        announced = true;
        heard_by_slot = harness.server().slots_aired();
        EXPECT_EQ(net::decode<net::HelloMsg>(frame.payload).generation,
                  reply.generation);
      }
    }
    ASSERT_TRUE(announced) << "untuned session never received the announce";
    EXPECT_LE(heard_by_slot, reply.activation_slot + 64);
  }
}

/// A raw full-mask session that checks, frame by frame, that what it is
/// told agrees with what it then receives, and sends a kReq every eighth
/// kPage.
class WireSession {
 public:
  explicit WireSession(std::uint16_t port)
      : fd_(net::connect_tcp("127.0.0.1", port)) {
    net::set_nonblocking(fd_.get(), true);
    send(net::encode(net::TuneMsg{net::kAllChannels}));
  }

  /// Reads what the socket holds and checks each frame.
  void pump() {
    char buffer[1 << 14];
    for (;;) {
      const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
    net::Frame frame;
    while (decoder_.next(frame)) on_frame(frame);
  }

  bool greeted() const { return greeted_; }
  std::uint32_t hello_generation() const { return hello_generation_; }
  std::uint64_t pages() const { return pages_; }
  std::uint64_t acks() const { return acks_; }
  /// (generation, next_slot) of every announce heard.
  const std::vector<std::pair<std::uint32_t, std::uint64_t>>& announces()
      const {
    return announces_;
  }

 private:
  void send(const std::string& frame) {
    ASSERT_EQ(::send(fd_.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  void on_frame(const net::Frame& frame) {
    switch (frame.type) {
      case net::FrameType::kHello: {
        ASSERT_FALSE(greeted_) << "a second hello";
        const auto hello = net::decode<net::HelloMsg>(frame.payload);
        greeted_ = true;
        hello_generation_ = newest_generation_ = hello.generation;
        hello_next_slot_ = hello.next_slot;
        return;
      }
      case net::FrameType::kAnnounce: {
        const auto announce = net::decode<net::HelloMsg>(frame.payload);
        EXPECT_TRUE(pages_ == 0 || last_page_slot_ < announce.next_slot)
            << "a kPage of slot " << last_page_slot_
            << " came before the announce of slot " << announce.next_slot;
        announces_.emplace_back(announce.generation, announce.next_slot);
        newest_generation_ = std::max(newest_generation_, announce.generation);
        return;
      }
      case net::FrameType::kPage: {
        const auto page = net::decode<net::PageMsg>(frame.payload);
        if (pages_ == 0) {
          EXPECT_GE(page.slot, hello_next_slot_)
              << "the first kPage precedes the slot the hello promised";
        }
        last_page_slot_ = page.slot;
        newest_generation_ = std::max(newest_generation_, page.generation);
        if (++pages_ % 8 == 0)
          send(net::encode(net::ReqMsg{.trace_id = pages_,
                                       .page = static_cast<std::uint32_t>(
                                           pages_ / 8 % 11)}));
        return;
      }
      case net::FrameType::kReqAck: {
        const auto ack = net::decode<net::ReqAckMsg>(frame.payload);
        EXPECT_GE(ack.generation, newest_generation_)
            << "an ack names a generation older than a frame already seen";
        ++acks_;
        return;
      }
      default:
        ADD_FAILURE() << "unexpected frame type "
                      << static_cast<int>(frame.type);
    }
  }

  net::Fd fd_;
  net::FrameDecoder decoder_;
  bool greeted_ = false;
  std::uint32_t hello_generation_ = 0;
  std::uint64_t hello_next_slot_ = 0;
  std::uint32_t newest_generation_ = 0;
  std::uint64_t last_page_slot_ = 0;
  std::uint64_t pages_ = 0;
  std::uint64_t acks_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> announces_;
};

// What a session is told agrees with the stream it then receives, at one
// loop and at four: each session's first kPage is at or past the next slot
// its hello named; each announce names the swap's activation slot and
// reaches the stream before any kPage of that slot; and every kReqAck names
// a generation no older than any frame its session had already seen.
TEST(MultiLoop, HelloAckAndAnnounceAgreeWithTheStreamTheyPrecede) {
  for (const std::size_t loops : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("loops=" + std::to_string(loops));
    AirServerConfig config;
    config.slot_us = 500;
    config.max_slots = 0;
    config.loops = loops;
    ServerHarness harness(paper_workload(), config);
    const std::uint16_t port = harness.server().port();

    std::vector<std::unique_ptr<WireSession>> sessions;
    const auto pump_until = [&](auto done) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done() && std::chrono::steady_clock::now() < deadline) {
        for (const auto& session : sessions) session->pump();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      EXPECT_TRUE(done());
    };
    const auto all_paged = [&] {
      for (const auto& session : sessions)
        if (session->pages() == 0) return false;
      return true;
    };

    for (int i = 0; i < 6; ++i)
      sessions.push_back(std::make_unique<WireSession>(port));
    pump_until(all_paged);

    SwapReply reply;
    std::atomic<bool> replied{false};
    std::thread swapper([&] {
      TuneClient client(harness.client_options(0));
      reply = client.request_swap(grown_workload());
      replied.store(true, std::memory_order_release);
    });
    for (int i = 0; i < 6; ++i)  // some greeted before activation, some after
      sessions.push_back(std::make_unique<WireSession>(port));
    pump_until([&] { return replied.load(std::memory_order_acquire); });
    swapper.join();
    ASSERT_TRUE(reply.accepted) << reply.error;
    pump_until([&] {
      if (harness.server().slots_aired() < reply.activation_slot + 200)
        return false;
      for (const auto& session : sessions)
        if (session->acks() == 0) return false;
      return true;
    });

    std::size_t announced = 0;
    for (const auto& session : sessions) {
      ASSERT_TRUE(session->greeted());
      if (session->hello_generation() == reply.generation) {
        EXPECT_TRUE(session->announces().empty())
            << "greeted under the new generation, then announced it";
        continue;
      }
      ASSERT_EQ(session->announces().size(), 1u);
      EXPECT_EQ(session->announces()[0].first, reply.generation);
      EXPECT_EQ(session->announces()[0].second, reply.activation_slot);
      ++announced;
    }
    EXPECT_GE(announced, 6u) << "the sessions greeted before the swap";
  }
}

// The wire contract does not soften under sharding: a full-mask client of a
// 4-loop server reconstructs a cycle that the model checker accepts.
TEST(MultiLoop, FourLoopBroadcastReconstructsToAValidProgram) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  options.record_pages = true;
  TuneClient recorder(options);
  recorder.run(0);

  const std::vector<ReceivedPage>& pages = recorder.pages();
  ASSERT_FALSE(pages.empty());
  std::uint64_t first = pages.front().slot;
  for (const ReceivedPage& page : pages) first = std::min(first, page.slot);
  BroadcastProgram program(4, 8);
  for (const ReceivedPage& page : pages) {
    if (page.slot < first || page.slot >= first + 8) continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  const ValidityReport report = validate_program(program, paper_workload());
  EXPECT_TRUE(report.valid)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(recorder.summary().deadline_misses, 0u);
}

// Each aired slot encodes each aired channel's frame exactly once, however
// many sessions take it and whichever loops they sit on: the encode count
// is the sum of popcount(aired_mask) over the aired slots (read back from
// the server.slot trace spans), plus one kPull encode per pull airing.
class SlotEncode : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlotEncode, OneEncodePerAiredChannelPerSlotWhateverTheAudience) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = GetParam();
  config.pull_channels = 1;
  MetricsDelta metrics;
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  {
    ServerHarness harness(paper_workload(), config);
    TuneClient full_a(harness.client_options(net::kAllChannels));
    TuneClient full_b(harness.client_options(net::kAllChannels));
    TuneClient one(harness.client_options(1ull << 1));
    TuneClient puller(harness.client_options(0));  // served by kPull only
    puller.request_page(4);
    puller.request_page(9);
    std::thread ta([&] { full_a.run(0); });
    std::thread tb([&] { full_b.run(0); });
    std::thread tc([&] { one.run(0); });
    puller.run(0);
    ta.join();
    tb.join();
    tc.join();
  }
  obs::set_tracing_enabled(false);
  ASSERT_EQ(obs::trace_spans_dropped(), 0u);

  std::string trace;
  obs::write_chrome_trace(trace, obs::this_process("test"));
  const obs::JsonValue doc = obs::json_parse(trace);
  std::uint64_t slots = 0;
  std::uint64_t aired_frames = 0;
  for (const obs::JsonValue& event :
       doc.at("traceEvents").expect_array("traceEvents").array) {
    if (event.at("name").expect_string("name") != "server.slot") continue;
    ++slots;
    aired_frames += static_cast<std::uint64_t>(std::popcount(
        event.at("args").at("channels").expect_uint("channels")));
  }
  EXPECT_EQ(slots, 600u);
  ASSERT_GT(aired_frames, 0u);
  const std::uint64_t pull_airings =
      metrics.counter("tcsa_server_pull_airings_total");
  EXPECT_EQ(pull_airings, 2u);
  const std::uint64_t encoded =
      metrics.counter("tcsa_server_frames_encoded_total");
  EXPECT_EQ(encoded, aired_frames + pull_airings);
  EXPECT_GT(metrics.counter("tcsa_server_frames_sent_total"), encoded)
      << "sessions must share encodes, not add them";
}

INSTANTIATE_TEST_SUITE_P(Loops, SlotEncode,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "loops" + std::to_string(info.param);
                         });

// A full-mask session queues the slot buffer whole; a one-channel session
// queues its loop's copy of one frame. Wherever the kernel puts them, both
// receive the same bytes for their common channel (a received page is a
// decoded kPage of fixed-width fields, so equal fields are equal bytes).
TEST(MultiLoop, FullMaskAndOneChannelSessionsReceiveIdenticalCommonBytes) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  constexpr std::uint32_t kChannel = 1;
  TuneClient::Options full_options = harness.client_options(net::kAllChannels);
  full_options.record_pages = true;
  TuneClient::Options one_options = harness.client_options(1ull << kChannel);
  one_options.record_pages = true;
  TuneClient full(full_options);
  TuneClient one(one_options);
  std::thread runner([&full] { full.run(0); });
  one.run(0);
  runner.join();

  std::map<std::uint64_t, std::string> full_bytes;  // slot -> frame
  for (const ReceivedPage& page : full.pages())
    if (page.channel == kChannel) full_bytes[page.slot] = net::encode(page);
  std::size_t common = 0;
  for (const ReceivedPage& page : one.pages()) {
    EXPECT_EQ(page.channel, kChannel) << "another channel's frame leaked";
    const auto it = full_bytes.find(page.slot);
    if (it == full_bytes.end()) continue;
    EXPECT_EQ(net::encode(page), it->second) << "slot " << page.slot;
    ++common;
  }
  EXPECT_GE(common, 100u) << "the sessions overlapped too little to compare";
}

// A hot swap never airs a stale frame: no frame aired at or past the
// activation slot carries the old generation, none before it carries the
// new one, and the new generation's frames reconstruct a valid program.
TEST(MultiLoop, HotSwapNeverAirsAStaleGenerationFrame) {
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 2000;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  options.record_pages = true;
  TuneClient recorder(options);
  std::thread runner([&recorder] { recorder.run(0); });

  // Let generation 1 air a few full cycles before the swap.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().slots_aired() < 64 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(harness.server().slots_aired(), 64u);

  TuneClient swapper(harness.client_options(0));
  const SwapReply reply = swapper.request_swap(grown_workload());
  ASSERT_TRUE(reply.accepted) << reply.error;
  ASSERT_EQ(reply.generation, 2u);
  runner.join();

  // Stale-frame check: the generation stamp inside every received frame
  // flips exactly at the activation boundary.
  ASSERT_FALSE(recorder.pages().empty());
  for (const ReceivedPage& page : recorder.pages()) {
    if (page.slot >= reply.activation_slot)
      EXPECT_EQ(page.generation, 2u)
          << "stale generation-1 frame aired at slot " << page.slot;
    else
      EXPECT_EQ(page.generation, 1u)
          << "generation-2 frame aired before activation at slot "
          << page.slot;
  }

  // Byte-level correctness of the generation-2 frames: a steady-state
  // cycle reconstructs to a program the model checker accepts for
  // the new workload.
  const SlotCount cycle = recorder.cycle_length();
  const std::uint64_t first = reply.activation_slot + cycle;  // warm cycle
  BroadcastProgram program(recorder.channels(), cycle);
  for (const ReceivedPage& page : recorder.pages()) {
    if (page.slot < first || page.slot >= first + cycle) continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  const ValidityReport report = validate_program(program, grown_workload());
  EXPECT_TRUE(report.valid)
      << (report.violations.empty() ? "" : report.violations.front());
}

// In-process loadgen smoke: every requested session connects, receives
// pages, and survives to teardown against a 4-loop server.
TEST(MultiLoop, LoadgenDrivesAndMeasuresAShardedServer) {
  AirServerConfig config;
  config.slot_us = 2000;
  config.max_slots = 0;
  config.loops = 4;
  ServerHarness harness(paper_workload(), config);

  LoadGenConfig load;
  load.port = harness.server().port();
  load.sessions = 200;
  load.threads = 2;
  load.duration_ms = 500;
  const LoadGenReport report = run_loadgen(load);
  EXPECT_EQ(report.sessions_connected, 200u);
  EXPECT_EQ(report.connect_failures, 0u);
  EXPECT_EQ(report.early_closes, 0u);
  EXPECT_GT(report.pages, 0u);
  EXPECT_GT(report.samples, 0u);
  EXPECT_GE(report.jitter_p99_us, report.jitter_p50_us);
  EXPECT_GE(report.jitter_max_us, report.jitter_p999_us);

  // The report is a metrics snapshot: counters carry the session counts.
  const obs::MetricsSnapshot snap = report.to_snapshot();
  EXPECT_EQ(snap.counter_value("tcsa_loadgen_sessions_total"), 200u);
  EXPECT_EQ(snap.counter_value("tcsa_loadgen_early_closes_total"), 0u);
}

/// VmRSS from /proc/self/status, in bytes.
std::uint64_t status_vm_rss_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string key; status >> key;) {
    std::uint64_t kib = 0;
    if (key == "VmRSS:" && status >> kib) return kib * 1024;
    status.ignore(1 << 12, '\n');
  }
  ADD_FAILURE() << "no VmRSS line in /proc/self/status";
  return 0;
}

// The loadgen's per-session RSS estimate differences process_rss_bytes():
// it must read the same resident figure the kernel reports as VmRSS (both
// count resident pages), within the few pages the reads themselves touch.
TEST(MultiLoop, LoadgenRssProbeMatchesVmRss) {
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t before = status_vm_rss_bytes();
  const std::uint64_t probe = process_rss_bytes();
  const std::uint64_t after = status_vm_rss_bytes();
  EXPECT_GT(probe, 0u);
  EXPECT_EQ(probe % page, 0u);
  EXPECT_GE(probe + 8 * page, std::min(before, after));
  EXPECT_LE(probe, std::max(before, after) + 8 * page);
}

}  // namespace
