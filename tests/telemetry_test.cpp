// telemetry_test.cpp — unit tests for the live telemetry plane: the
// SlotTimeline seqlock ring, the lag percentiles read back off it, the
// SloWatchdog's breach check, and the HttpAdmin GET responder (served from
// an EventLoop polled on a thread, scraped with the blocking http_get
// client — the same pairing AirServer and tcsactl use in production).

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/http_admin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/watchdog.hpp"
#include "oracles.hpp"

namespace {

using namespace tcsa;

// ------------------------------------------------------------- timeline

constexpr std::uint32_t kSlotUs = 100;  // make_record's slot length

obs::SlotRecord make_record(std::uint64_t slot) {
  obs::SlotRecord rec;
  rec.slot = slot;
  rec.scheduled_us = static_cast<std::int64_t>(slot * 100);
  rec.actual_us = static_cast<std::int64_t>(slot * 100 + slot % 7);
  rec.bytes_flushed = slot * 10;
  rec.sessions = 3;
  rec.evictions = slot / 2;
  rec.generation = 1;
  rec.aired_mask = (slot % 2 == 0) ? 0x5u : 0x2u;
  return rec;
}

TEST(SlotTimeline, SnapshotReturnsRecordsOldestFirst) {
  obs::SlotTimeline timeline(8, kSlotUs);
  for (std::uint64_t s = 0; s < 5; ++s) timeline.record(make_record(s));
  EXPECT_EQ(timeline.capacity(), 8u);
  EXPECT_EQ(timeline.recorded(), 5u);

  const std::vector<obs::SlotRecord> slots = timeline.snapshot();
  ASSERT_EQ(slots.size(), 5u);
  for (std::uint64_t s = 0; s < 5; ++s) {
    EXPECT_EQ(slots[s].slot, s);
    EXPECT_EQ(slots[s].scheduled_us, static_cast<std::int64_t>(s * 100));
    EXPECT_EQ(slots[s].lag_us(), static_cast<std::int64_t>(s % 7));
    EXPECT_EQ(slots[s].bytes_flushed, s * 10);
    EXPECT_EQ(slots[s].aired_mask, (s % 2 == 0) ? 0x5u : 0x2u);
  }
}

TEST(SlotTimeline, RingKeepsOnlyTheMostRecentCapacityRecords) {
  obs::SlotTimeline timeline(4, kSlotUs);
  for (std::uint64_t s = 0; s < 11; ++s) timeline.record(make_record(s));
  EXPECT_EQ(timeline.recorded(), 11u);

  const std::vector<obs::SlotRecord> slots = timeline.snapshot();
  ASSERT_EQ(slots.size(), 4u);
  // Slots 7..10 survive; 0..6 were overwritten.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(slots[i].slot, 7u + i);
}

TEST(SlotTimeline, SnapshotMaxLimitsToTheNewestRecords) {
  obs::SlotTimeline timeline(16, kSlotUs);
  for (std::uint64_t s = 0; s < 10; ++s) timeline.record(make_record(s));

  const std::vector<obs::SlotRecord> slots = timeline.snapshot(3);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0].slot, 7u);
  EXPECT_EQ(slots[2].slot, 9u);
}

TEST(SlotTimeline, ConcurrentReadersNeverSeeTornRecords) {
  // One writer hammers a tiny ring while readers snapshot continuously.
  // Torn cells would show internally inconsistent fields; the seqlock must
  // instead drop them, so every returned record satisfies the writer's
  // invariant actual == scheduled + (slot % 7).
  obs::SlotTimeline timeline(4, kSlotUs);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};

  std::thread writer([&] {
    std::uint64_t slot = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      timeline.record(make_record(slot++));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const obs::SlotRecord& rec : timeline.snapshot()) {
          ASSERT_EQ(rec.actual_us,
                    rec.scheduled_us +
                        static_cast<std::int64_t>(rec.slot % 7));
          ASSERT_EQ(rec.bytes_flushed, rec.slot * 10);
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(checked.load(), 0u);
}

TEST(SlotTimeline, JsonDumpParsesBackWithLagPerSlot) {
  obs::SlotTimeline timeline(8, kSlotUs);
  for (std::uint64_t s = 0; s < 3; ++s) timeline.record(make_record(s));

  const obs::JsonValue doc = obs::json_parse(timeline.to_json());
  EXPECT_EQ(doc.at("capacity").number, 8.0);
  EXPECT_EQ(doc.at("recorded").number, 3.0);
  const obs::JsonValue& slots = doc.at("slots").expect_array("slots");
  ASSERT_EQ(slots.array.size(), 3u);
  EXPECT_EQ(slots.array[2].at("slot").number, 2.0);
  EXPECT_EQ(slots.array[2].at("lag_us").number, 2.0);  // 2 % 7
  EXPECT_EQ(slots.array[2].at("bytes_flushed").number, 20.0);
}

TEST(SlotTimeline, JsonDumpHonoursMax) {
  obs::SlotTimeline timeline(8, kSlotUs);
  for (std::uint64_t s = 0; s < 6; ++s) timeline.record(make_record(s));
  const obs::JsonValue doc = obs::json_parse(timeline.to_json(2));
  const obs::JsonValue& slots = doc.at("slots").expect_array("slots");
  ASSERT_EQ(slots.array.size(), 2u);
  EXPECT_EQ(slots.array[0].at("slot").number, 4.0);
}

TEST(SlotTimeline, RecordsOutOfOrderThrow) {
  obs::SlotTimeline timeline(4, kSlotUs);
  timeline.record(make_record(0));
  EXPECT_THROW(timeline.record(make_record(2)), std::invalid_argument);
  EXPECT_THROW(timeline.record(make_record(0)), std::invalid_argument);
  obs::SlotRecord off_clock = make_record(1);
  off_clock.scheduled_us += 1;
  EXPECT_THROW(timeline.record(off_clock), std::invalid_argument);
  timeline.record(make_record(1));
  EXPECT_EQ(timeline.recorded(), 2u);
  ASSERT_EQ(timeline.snapshot().size(), 2u);
  EXPECT_EQ(timeline.snapshot()[1], make_record(1));
}

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

/// A value for a 32-bit packed field: mostly small, sometimes at the
/// field's limit, and above it only when `wide`.
std::uint64_t field_value(std::mt19937_64& rng, bool wide) {
  switch (rng() % 8) {
    case 0: return kMax32;
    case 1: return kMax32 - 1;
    case 2: return wide ? kMax32 + 1 : 0;
    case 3: return wide ? rng() >> 1 : rng() % (kMax32 + 1);
    default: return rng() % 5000;
  }
}

/// A random sequential stream through the packed ring and the 72-byte
/// reference ring, comparing snapshot() and to_json() as it goes: several
/// laps of a small ring, max_records trims (0, in range and past the
/// capacity), generation and aired-mask changes. With `wide`, the 32-bit
/// fields also go past UINT32_MAX, and the reference is fed the record as
/// SlotRecord documents it reads back: each such field saturated.
void run_against_reference(std::uint64_t seed, bool wide) {
  std::mt19937_64 rng(seed);
  const std::size_t capacity = 1 + rng() % 40;
  const std::uint32_t slot_us = static_cast<std::uint32_t>(1 + rng() % 5000);
  obs::SlotTimeline packed(capacity, slot_us);
  SlotTimelineReference reference(capacity);
  const std::uint64_t records = capacity * (3 + rng() % 4) + rng() % capacity;
  obs::SlotRecord rec;
  for (std::uint64_t s = 0; s < records; ++s) {
    rec.slot = s;
    rec.scheduled_us = static_cast<std::int64_t>(s * slot_us);
    rec.actual_us =
        rec.scheduled_us + static_cast<std::int64_t>(field_value(rng, wide));
    rec.bytes_flushed = field_value(rng, wide);
    rec.sessions = field_value(rng, wide);
    rec.evictions = field_value(rng, wide);
    if (rng() % 8 == 0) rec.generation = field_value(rng, wide);
    if (rng() % 4 == 0) rec.aired_mask = rng() >> (rng() % 64);
    packed.record(rec);
    obs::SlotRecord expected = rec;
    expected.actual_us =
        rec.scheduled_us + static_cast<std::int64_t>(std::min<std::uint64_t>(
                               static_cast<std::uint64_t>(rec.lag_us()),
                               kMax32));
    expected.bytes_flushed = std::min(rec.bytes_flushed, kMax32);
    expected.sessions = std::min(rec.sessions, kMax32);
    expected.evictions = std::min(rec.evictions, kMax32);
    expected.generation = std::min(rec.generation, kMax32);
    ASSERT_TRUE(wide || expected == rec);
    reference.record(expected);
    if (rng() % 4 == 0 || s + 1 == records) {
      const std::size_t max_records = rng() % (capacity + 3);
      ASSERT_EQ(packed.snapshot(max_records), reference.snapshot(max_records))
          << "seed " << seed << " slot " << s;
      ASSERT_EQ(packed.to_json(max_records), reference.to_json(max_records))
          << "seed " << seed << " slot " << s;
    }
  }
  EXPECT_EQ(packed.recorded(), reference.recorded());
}

TEST(SlotTimeline, MatchesTheReferenceRingOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed)
    run_against_reference(seed, /*wide=*/false);
}

TEST(SlotTimeline, WideFieldsSaturateAtUint32Max) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed)
    run_against_reference(seed, /*wide=*/true);

  obs::SlotTimeline timeline(2, kSlotUs);
  obs::SlotRecord rec;
  rec.actual_us = -5;  // a negative lag reads back as 0
  timeline.record(rec);
  EXPECT_EQ(timeline.snapshot()[0].lag_us(), 0);
}

// ------------------------------------------------------------- watchdog

/// Records the next slot, aired `lag_us` late, in the timeline.
void record_lag(obs::SlotTimeline& timeline, std::int64_t lag_us) {
  obs::SlotRecord rec;
  rec.slot = timeline.recorded();
  rec.scheduled_us = static_cast<std::int64_t>(rec.slot * kSlotUs);
  rec.actual_us = rec.scheduled_us + lag_us;
  timeline.record(rec);
}

/// Airs one slot the way AirServer does: record it in the timeline, then
/// let the watchdog check its lag.
void air(obs::SlotTimeline& timeline, obs::SloWatchdog& dog,
         std::int64_t lag_us, std::int64_t now_us) {
  record_lag(timeline, lag_us);
  dog.observe(static_cast<double>(lag_us), now_us);
}

constexpr std::int64_t kWindow = obs::kLagWindow;

TEST(SloWatchdog, ConstantLagCollapsesAllPercentiles) {
  obs::SlotTimeline timeline(4096, kSlotUs);
  EXPECT_EQ(obs::recent_lag_percentiles(timeline).p99_us, 0.0);  // no slots
  for (std::int64_t i = 0; i + 1 < kWindow; ++i) record_lag(timeline, 250);
  // Fewer than a window's records: the percentiles cover what there is.
  const obs::LagPercentiles lag = obs::recent_lag_percentiles(timeline);
  EXPECT_DOUBLE_EQ(lag.p50_us, 250.0);
  EXPECT_DOUBLE_EQ(lag.p99_us, 250.0);
  EXPECT_DOUBLE_EQ(lag.p999_us, 250.0);
}

TEST(SloWatchdog, RampSeparatesTheTailFromTheMedian) {
  obs::SlotTimeline timeline(4096, kSlotUs);
  for (std::int64_t i = 1; i <= kWindow; ++i) record_lag(timeline, i);
  const obs::LagPercentiles lag = obs::recent_lag_percentiles(timeline);
  // Nearest-rank over 1..256: the median sits mid-ramp, the tail at the top.
  EXPECT_GE(lag.p50_us, 120.0);
  EXPECT_LE(lag.p50_us, 136.0);
  EXPECT_GE(lag.p99_us, 250.0);
  EXPECT_GE(lag.p999_us, lag.p99_us);
  EXPECT_GT(lag.p99_us, lag.p50_us);
}

TEST(SloWatchdog, PercentilesAreTheNearestRankOfTheNewestWindowOnly) {
  // The timeline is the only store of lags: a window of huge lags that
  // has scrolled out must not leak into the next window's percentiles.
  obs::SlotTimeline timeline(4096, kSlotUs);
  for (std::int64_t i = 0; i < kWindow; ++i)
    record_lag(timeline, 1'000'000);
  EXPECT_DOUBLE_EQ(obs::recent_lag_percentiles(timeline).p50_us, 1e6);
  for (std::int64_t i = 1; i <= kWindow; ++i)
    record_lag(timeline, i);
  const obs::LagPercentiles lag = obs::recent_lag_percentiles(timeline);
  // Ranks ceil(q * 256): 128, 254 (253.44 rounded up) and 256.
  EXPECT_DOUBLE_EQ(lag.p50_us, 128.0);
  EXPECT_DOUBLE_EQ(lag.p99_us, 254.0);
  EXPECT_DOUBLE_EQ(lag.p999_us, 256.0);
}

TEST(SloWatchdog, BreachesCountAndWarningsAreRateLimited) {
  std::vector<std::string> warnings;
  obs::SlotTimeline timeline(4096, kSlotUs);
  obs::SloWatchdog dog(500.0, [&](const std::string& message) {
    warnings.push_back(message);
  });

  air(timeline, dog, 100, 0);           // under the SLO: no breach
  air(timeline, dog, 900, 10);          // breach #1 — warns (first is free)
  air(timeline, dog, 901, 20);          // breach #2 — inside the warn interval
  air(timeline, dog, 902, 2'000'000);   // breach #3 — interval elapsed, warns
  EXPECT_EQ(dog.breaches(), 3u);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("900"), std::string::npos);
}

TEST(SloWatchdog, ZeroThresholdDisablesBreachChecks) {
  bool warned = false;
  obs::SlotTimeline timeline(4096, kSlotUs);
  obs::SloWatchdog dog(0.0, [&](const std::string&) { warned = true; });
  for (std::int64_t i = 0; i < kWindow; ++i)
    air(timeline, dog, 1'000'000'000, i);
  EXPECT_EQ(dog.breaches(), 0u);
  EXPECT_FALSE(warned);
}

TEST(SloWatchdog, CountsBreachesEvenWhenRecordingIsDisabled) {
  // The watchdog uses the *_always recorder: SLO breaches must stay
  // visible on a scrape even when per-request recording is gated off.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  obs::SlotTimeline timeline(4096, kSlotUs);
  obs::SloWatchdog dog(10.0, [](const std::string&) {});
  for (std::int64_t i = 0; i < kWindow; ++i) air(timeline, dog, 40, i);
  obs::set_enabled(was_enabled);

  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter_value("tcsa_slo_breach_total"),
            static_cast<std::uint64_t>(kWindow));
}

// ------------------------------------------------------------ http admin

/// Runs an HttpAdmin on a dedicated EventLoop thread for one test body.
class HttpAdminTest : public ::testing::Test {
 protected:
  void start_admin() {
    admin_ = std::make_unique<net::HttpAdmin>(loop_, "127.0.0.1", 0);
    admin_->route("/ping", [](std::string_view) {
      net::HttpResponse response;
      response.body = "pong\n";
      return response;
    });
    admin_->route("/echo", [](std::string_view query) {
      net::HttpResponse response;
      response.content_type = "application/json";
      response.body = "{\"query\": \"" + std::string(query) + "\"}";
      return response;
    });
    admin_->route("/big", [](std::string_view query) {
      // ?kb=N — a body far beyond any single write/chunk size, patterned
      // so truncation or reordering cannot go unnoticed.
      std::size_t kb = 64;
      if (query.substr(0, 3) == "kb=")
        kb = static_cast<std::size_t>(
            std::strtoull(std::string(query.substr(3)).c_str(), nullptr, 10));
      std::string body;
      body.reserve(kb * 1024);
      std::size_t line = 0;
      while (body.size() < kb * 1024)
        body += "line " + std::to_string(line++) + " of a deliberately "
                "oversized admin response body\n";
      net::HttpResponse response;
      response.body = std::move(body);
      return response;
    });
    admin_->start();
    loop_thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) loop_.poll(20);
    });
  }

  void TearDown() override {
    if (loop_thread_.joinable()) {
      loop_.post([this] {
        admin_->shutdown();
        stop_.store(true, std::memory_order_relaxed);
      });
      loop_thread_.join();
    }
  }

  net::EventLoop loop_;
  std::unique_ptr<net::HttpAdmin> admin_;
  std::thread loop_thread_;
  std::atomic<bool> stop_{false};
};

TEST_F(HttpAdminTest, RoutesAnswerWithBodyAndContentType) {
  start_admin();
  const net::HttpResponse pong =
      net::http_get("127.0.0.1", admin_->port(), "/ping");
  EXPECT_EQ(pong.status, 200);
  EXPECT_EQ(pong.body, "pong\n");
  EXPECT_NE(pong.content_type.find("text/plain"), std::string::npos);

  const net::HttpResponse echo =
      net::http_get("127.0.0.1", admin_->port(), "/echo?max=3");
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, "{\"query\": \"max=3\"}");
  EXPECT_NE(echo.content_type.find("application/json"), std::string::npos);
}

TEST_F(HttpAdminTest, UnknownPathIs404AndNonGetIs405) {
  start_admin();
  const net::HttpResponse missing =
      net::http_get("127.0.0.1", admin_->port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  // http_get only sends GET; exercise the 405 path with a raw socket.
  net::Fd sock = net::connect_tcp("127.0.0.1", admin_->port());
  const std::string request = "POST /ping HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(sock.get(), request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(sock.get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(reply.find("405"), std::string::npos);
}

TEST_F(HttpAdminTest, LargeResponsesArriveCompleteAndInOrder) {
  // Regression: response bodies used to ride the queue as one monolithic
  // buffer; they are now chunked, and a body much larger than both the
  // chunk size and any socket buffer must still arrive byte-identical.
  start_admin();
  const net::HttpResponse big =
      net::http_get("127.0.0.1", admin_->port(), "/big?kb=512");
  ASSERT_EQ(big.status, 200);
  EXPECT_GE(big.body.size(), 512u * 1024u);
  // Rebuild the expected body and compare exactly: any dropped, duplicated
  // or reordered chunk changes the line numbering somewhere.
  std::string expected;
  expected.reserve(big.body.size());
  std::size_t line = 0;
  while (expected.size() < 512u * 1024u)
    expected += "line " + std::to_string(line++) + " of a deliberately "
                "oversized admin response body\n";
  EXPECT_EQ(big.body, expected);
}

TEST_F(HttpAdminTest, ServesManySequentialScrapesWithoutLeakingConns) {
  start_admin();
  for (int i = 0; i < 32; ++i) {
    const net::HttpResponse response =
        net::http_get("127.0.0.1", admin_->port(), "/ping");
    ASSERT_EQ(response.status, 200);
  }
  // Connections close after each response (HTTP/1.0); give the loop a
  // moment to reap the last close, then confirm nothing accumulated.
  for (int i = 0; i < 50 && admin_->connections() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(admin_->connections(), 0u);
}

TEST_F(HttpAdminTest, IdleConnectionsAreCappedAndAFreshScrapeStillAnswers) {
  start_admin();
  constexpr std::size_t kCap = net::HttpAdmin::kMaxConnections;
  std::vector<net::Fd> idle;
  for (std::size_t i = 0; i < kCap + 8; ++i)
    idle.push_back(net::connect_tcp("127.0.0.1", admin_->port()));
  // Past the cap, each accept closes the oldest unanswered connection, so
  // the eighth-oldest idle socket sees EOF once all of them are accepted.
  pollfd pfd = {idle[7].get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "oldest idle sockets never closed";
  char byte = 0;
  EXPECT_EQ(::recv(idle[7].get(), &byte, 1, 0), 0);
  EXPECT_LE(admin_->connections(), kCap);

  const net::HttpResponse pong =
      net::http_get("127.0.0.1", admin_->port(), "/ping");
  EXPECT_EQ(pong.status, 200);
  EXPECT_LE(admin_->connections(), kCap);
}

}  // namespace
