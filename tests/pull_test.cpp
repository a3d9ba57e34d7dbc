// pull_test.cpp — the request plane: per-session pending-request units
// (the cap, pull-frame sharing, broadcast matching), demand-table policy
// units (LWF vs max-response-time, coalescing, dedup, maintenance) and the
// loopback edge cases around a live AirServer with --pull-channels: one
// airing satisfying duplicate requests, a requester that disconnects
// before its airing, a request for a page outside the program, and demand
// pruned by a shrinking hot swap.
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "model/workload.hpp"
#include "net/framing.hpp"
#include "net/http_admin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "server/air_server.hpp"
#include "server/pull_plane.hpp"
#include "server/tune_client.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

Workload paper_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }

/// The pull counts a /healthz scrape reports.
struct PullHealth {
  std::uint64_t airings = 0;
  std::uint64_t waiters_served = 0;
};

/// Airs a pull-enabled server with the admin plane, has a mask-0 session
/// request two distinct pages, and polls /healthz until both were served.
PullHealth serve_two_pulls_and_scrape() {
  AirServerConfig config;
  config.slot_us = 1000;
  config.pull_channels = 1;
  config.admin_port = 0;
  ServerHarness harness(paper_workload(), config);
  TuneClient client(harness.client_options(0));  // pull frames only
  client.request_page(4);
  client.request_page(5);

  PullHealth health;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (health.waiters_served < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const obs::JsonValue doc = obs::json_parse(
        net::http_get("127.0.0.1", harness.server().admin_port(), "/healthz")
            .body);
    health.airings = doc.at("pull_airings").expect_uint("pull_airings");
    health.waiters_served =
        doc.at("pull_waiters_served").expect_uint("pull_waiters_served");
  }
  return health;
}

PullWaiter waiter(std::uint64_t session, std::uint64_t slot) {
  return PullWaiter{session, /*trace_id=*/session * 1000 + slot, slot,
                    /*arrival_us=*/slot * 100};
}

// ------------------------------------------------------------ policy units

TEST(PullPolicy, ParseAndName) {
  PullPolicy policy = PullPolicy::kMaxResponseTime;
  EXPECT_TRUE(parse_pull_policy("lwf", &policy));
  EXPECT_EQ(policy, PullPolicy::kLongestWaitFirst);
  EXPECT_TRUE(parse_pull_policy("maxrt", &policy));
  EXPECT_EQ(policy, PullPolicy::kMaxResponseTime);
  EXPECT_FALSE(parse_pull_policy("fifo", &policy));
  EXPECT_EQ(policy, PullPolicy::kMaxResponseTime) << "bad parse must not write";
  EXPECT_STREQ(pull_policy_name(PullPolicy::kLongestWaitFirst), "lwf");
  EXPECT_STREQ(pull_policy_name(PullPolicy::kMaxResponseTime), "maxrt");
}

TEST(PullDemandTable, CoalescesSessionsAndDropsDuplicates) {
  PullDemandTable table;
  EXPECT_EQ(table.add(5, waiter(1, 10)), PullAdd::kNewPage);
  EXPECT_EQ(table.add(5, waiter(2, 11)), PullAdd::kCoalesced);
  EXPECT_EQ(table.add(5, waiter(1, 12)), PullAdd::kDuplicate)
      << "a session already waiting for the page must not be re-added";
  EXPECT_EQ(table.pending_pages(), 1u);
  EXPECT_EQ(table.pending_waiters(), 2u);
  EXPECT_TRUE(table.has_page(5));
  EXPECT_FALSE(table.has_page(4));

  const auto airing = table.pick(PullPolicy::kLongestWaitFirst, 20);
  ASSERT_TRUE(airing.has_value());
  EXPECT_EQ(airing->page, 5u);
  EXPECT_EQ(airing->first_request_slot, 10u);
  EXPECT_EQ(airing->waiters.size(), 2u) << "one airing pops every waiter";
  EXPECT_EQ(table.pending_pages(), 0u);
  EXPECT_EQ(table.pending_waiters(), 0u);
  EXPECT_FALSE(table.pick(PullPolicy::kLongestWaitFirst, 21).has_value());
}

TEST(PullDemandTable, DropSessionRemovesItsWaitersEverywhere) {
  PullDemandTable table;
  table.add(1, waiter(7, 0));
  table.add(2, waiter(7, 1));
  table.add(2, waiter(8, 2));
  EXPECT_EQ(table.drop_session(7), 2u);
  EXPECT_FALSE(table.has_page(1)) << "a page with no audience left vanishes";
  EXPECT_TRUE(table.has_page(2));
  EXPECT_EQ(table.pending_waiters(), 1u);
  EXPECT_EQ(table.drop_session(99), 0u);
}

TEST(PullDemandTable, DropPagesAtOrAboveIsTheSwapHook) {
  PullDemandTable table;
  table.add(2, waiter(1, 0));
  table.add(8, waiter(2, 1));
  table.add(8, waiter(3, 1));
  table.add(9, waiter(4, 2));
  EXPECT_EQ(table.drop_pages_at_or_above(8), 3u);
  EXPECT_EQ(table.pending_pages(), 1u);
  EXPECT_TRUE(table.has_page(2));
  EXPECT_EQ(table.drop_pages_at_or_above(0), 1u);
  EXPECT_EQ(table.pending_waiters(), 0u);
}

// LWF maximizes TOTAL accumulated wait (count · now − Σ arrivals), maxrt
// the OLDEST waiter's age — a popular-but-recent page beats a lone old
// request under LWF and loses under maxrt.
TEST(PullDemandTable, LwfAndMaxrtDisagreeOnPopularVsOld) {
  const auto fill = [](PullDemandTable& table) {
    table.add(1, waiter(10, 5));  // page 1: three waiters since slot 5
    table.add(1, waiter(11, 5));
    table.add(1, waiter(12, 5));
    table.add(2, waiter(13, 0));  // page 2: one waiter since slot 0
  };
  PullDemandTable lwf;
  fill(lwf);
  const auto by_lwf = lwf.pick(PullPolicy::kLongestWaitFirst, 10);
  ASSERT_TRUE(by_lwf.has_value());
  EXPECT_EQ(by_lwf->page, 1u) << "3*(10-5)=15 total wait beats 10";

  PullDemandTable maxrt;
  fill(maxrt);
  const auto by_maxrt = maxrt.pick(PullPolicy::kMaxResponseTime, 10);
  ASSERT_TRUE(by_maxrt.has_value());
  EXPECT_EQ(by_maxrt->page, 2u) << "oldest wait 10 beats 5";
}

TEST(PullDemandTable, TiesBreakTowardTheLowerPageId) {
  PullDemandTable table;
  table.add(7, waiter(1, 4));
  table.add(3, waiter(2, 4));
  for (const PullPolicy policy :
       {PullPolicy::kLongestWaitFirst, PullPolicy::kMaxResponseTime}) {
    PullDemandTable fresh;
    fresh.add(7, waiter(1, 4));
    fresh.add(3, waiter(2, 4));
    const auto airing = fresh.pick(policy, 9);
    ASSERT_TRUE(airing.has_value());
    EXPECT_EQ(airing->page, 3u);
  }
}

TEST(PullDemandTable, OldestWaitTracksTheFirstRequest) {
  PullDemandTable table;
  EXPECT_EQ(table.oldest_wait(10), 0u);
  table.add(4, waiter(1, 7));
  table.add(2, waiter(2, 4));
  EXPECT_EQ(table.oldest_wait(10), 6u);
}

// ------------------------------------------------------ pending requests

// A session over the cap loses its OLDEST open request, and says so.
TEST(PendingRequests, TheSixtyFifthOpenRequestDropsTheOldest) {
  MetricsDelta metrics;
  PendingRequests pending;
  for (std::uint64_t i = 0; i <= PendingRequests::kCap; ++i)
    pending.open(/*trace_id=*/i, static_cast<PageId>(i), /*recv_us=*/i);
  ASSERT_EQ(pending.entries().size(), PendingRequests::kCap);
  EXPECT_EQ(pending.entries().front().trace_id, 1u);
  EXPECT_EQ(pending.entries().back().trace_id, PendingRequests::kCap);
  EXPECT_EQ(metrics.counter("tcsa_server_reqs_dropped_total"), 1u);
}

// Two open requests for one page match the same kPull airing: the session
// needs the frame once, and both retire into the pull population.
TEST(PendingRequests, DuplicateEntriesForOnePageResolveOffOnePullFrame) {
  MetricsDelta metrics;
  PendingRequests pending;
  pending.open(1, 4, 0);
  pending.open(2, 4, 0);
  pending.open(3, 5, 0);
  EXPECT_TRUE(pending.match_pull(10, 4));
  EXPECT_FALSE(pending.match_pull(10, 4)) << "nothing left to match";
  pending.retire(0);
  ASSERT_EQ(pending.entries().size(), 1u);
  EXPECT_EQ(pending.entries().front().page, 5u);
  EXPECT_EQ(metrics.counter("tcsa_server_reqs_completed_total"), 2u);
  EXPECT_EQ(metrics.counter("tcsa_server_reqs_pull_served_total"), 2u);
}

// A broadcast airing resolves a request only when the page rode a channel
// the session subscribes to AND that channel aired this slot.
TEST(PendingRequests, BroadcastMatchesOnlyOnASubscribedChannelThatAired) {
  PendingRequests pending;
  pending.open(1, 4, 0);
  BroadcastProgram program(3, 2);  // column 1 airs pages {4, 2, 4}
  program.place(0, 1, 4);
  program.place(1, 1, 2);
  program.place(2, 1, 4);
  // The hit mask is the session's subscribed channels that aired.
  pending.match_broadcast(10, /*hit=*/0b010 & 0b111, program, 1);
  pending.match_broadcast(11, /*hit=*/0b001 & 0b110, program, 1);
  pending.retire(0);
  ASSERT_EQ(pending.entries().size(), 1u) << "matched off-mask or unaired";

  pending.match_broadcast(12, /*hit=*/0b101 & 0b100, program, 1);
  EXPECT_EQ(pending.entries().front().encoded_slot, 12u);
  EXPECT_FALSE(pending.entries().front().via_pull);
  pending.retire(0);
  EXPECT_TRUE(pending.empty());
}

// --------------------------------------------------- live-server edge cases

// A session asking twice for the same page holds ONE seat in the demand
// table, and the single kPull airing completes both of its pending
// requests — coalescing inside one session.
TEST(PullPlane, DuplicateRequestsShareOneAiring) {
  MetricsDelta metrics;
  AirServerConfig config;
  // A wide slot keeps both kReqs inside one inter-tick window even on a
  // loaded box — a tick between them would (correctly) split the airings.
  config.slot_us = 100000;
  config.max_slots = 6;
  config.pull_channels = 1;
  ServerHarness harness(paper_workload(), config);

  // Mask 0: no broadcast frames, so completion can only come via kPull.
  TuneClient client(harness.client_options(0));
  client.request_page(4);
  client.request_page(4);
  EXPECT_TRUE(client.run(0)) << "expected server EOF at max_slots";

  const TuneSummary summary = client.summary();
  EXPECT_EQ(summary.requests.sent, 2u);
  EXPECT_EQ(summary.requests.acked, 2u);
  EXPECT_EQ(summary.requests.completed, 2u)
      << "one pull airing must complete every pending request of its page";
  EXPECT_EQ(summary.wants.pull_frames, 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_airings_total"), 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_waiters_served_total"), 1u)
      << "the duplicate holds no second seat in the demand table";
  EXPECT_EQ(metrics.counter("tcsa_server_pull_reqs_total"), 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_reqs_duplicate_total"), 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_reqs_pull_served_total"), 2u);
}

// A requester that hangs up before its airing must not win a pull slot:
// the HUP drops its demand long before the next (far-away) slot tick.
TEST(PullPlane, DisconnectBeforeAiringDropsTheDemand) {
  MetricsDelta metrics;
  AirServerConfig config;
  config.slot_us = 200000;  // next airing tick is 200ms away
  config.pull_channels = 1;
  {
    ServerHarness harness(paper_workload(), config);
    {
      TuneClient client(harness.client_options(0));
      client.request_page(2);  // returns only after the kReqAck
    }
    // The ack round trip proved the demand is in the table; the close
    // races only against a slot tick 200ms out.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(metrics.counter("tcsa_server_pull_airings_total"), 0u)
        << "a vanished audience must not be aired to";
  }
  EXPECT_EQ(metrics.counter("tcsa_server_pull_waiters_dropped_total"), 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_airings_total"), 0u);
}

// Demand for a page outside the program is acked (expected 0), counted,
// and dropped — never parked in the table forever.
TEST(PullPlane, RequestForUnknownPageIsCountedAndDropped) {
  MetricsDelta metrics;
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 60;
  config.pull_channels = 1;
  ServerHarness harness(paper_workload(), config);  // pages 0..10

  TuneClient client(harness.client_options(0));
  client.request_page(99);
  EXPECT_TRUE(client.run(0));
  const TuneSummary summary = client.summary();
  EXPECT_EQ(summary.requests.acked, 1u);
  EXPECT_EQ(summary.requests.completed, 0u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_airings_total"), 0u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_unknown_page_total"), 1u);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_reqs_total"), 0u);
}

// Swap-during-pending: a generation that shrinks the page universe prunes
// the demand it strands. Nine single-waiter demands (pages 2..10) drain at
// one LWF airing per slot in ascending page order; the swap activates at a
// major-cycle boundary at most 8 slots after its request, so at most 7 of
// them air first — the rest of pages >= 8 are deterministically dropped
// when the 8-page generation activates. Invariant: airings + dropped = 9.
TEST(PullPlane, ShrinkingSwapPrunesStrandedDemand) {
  MetricsDelta metrics;
  AirServerConfig config;
  config.slot_us = 20000;  // 20ms: nine acked kReqs land inside one slot
  config.pull_channels = 1;
  config.pull_policy = PullPolicy::kLongestWaitFirst;
  ServerHarness harness(paper_workload(), config);  // 11 pages

  TuneClient swapper(harness.client_options(net::kAllChannels));
  const SwapReply reply =
      swapper.request_swap(make_workload({2, 4, 8}, {3, 4, 1}));  // 8 pages
  ASSERT_TRUE(reply.accepted) << reply.error;
  std::thread swapper_pump([&] { swapper.run(0); });

  TuneClient puller(harness.client_options(0));
  for (PageId page = 2; page <= 10; ++page) puller.request_page(page);

  // Let the activation boundary (<= 8 slots) plus the surviving airings
  // pass: 20 slots of headroom.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  harness.server().stop();
  swapper_pump.join();
  EXPECT_TRUE(puller.run(0));

  const std::uint64_t airings =
      metrics.counter("tcsa_server_pull_airings_total");
  EXPECT_GE(airings, 6u) << "pages 2..7 stay valid and must all air";
  EXPECT_LE(airings, 7u) << "at most 7 airings fit before the boundary, and "
                            "pages >= 8 are pruned at activation";
  EXPECT_EQ(puller.summary().requests.completed, airings)
      << "each single-waiter airing completes exactly one request";
  EXPECT_EQ(metrics.counter("tcsa_server_pull_waiters_dropped_total"),
            9u - airings);
}

// /healthz reports the pull counts from loop-0 state, so they hold with
// recording off; with recording on they agree with the registry counters.
TEST(PullPlane, HealthzReportsPullCountsWithRecordingOffAndOn) {
  ASSERT_FALSE(obs::enabled()) << "recording is off by default";
  const PullHealth off = serve_two_pulls_and_scrape();
  EXPECT_GT(off.airings, 0u);
  EXPECT_GT(off.waiters_served, 0u);

  MetricsDelta metrics;
  const PullHealth on = serve_two_pulls_and_scrape();
  EXPECT_GT(on.airings, 0u);
  EXPECT_EQ(on.airings, metrics.counter("tcsa_server_pull_airings_total"));
  EXPECT_EQ(on.waiters_served,
            metrics.counter("tcsa_server_pull_waiters_served_total"));
}

TEST(PullPlane, DisabledByDefaultAirsNothing) {
  AirServerConfig config;
  config.slot_us = 500;
  config.max_slots = 10;
  MetricsDelta metrics;
  ServerHarness harness(paper_workload(), config);
  EXPECT_EQ(metrics.counter("tcsa_server_pull_airings_total"), 0u);
}

}  // namespace
