// telemetry_test.cpp — unit tests for the live telemetry plane: the
// SlotTimeline seqlock ring, the SloWatchdog percentile window, and the
// HttpAdmin GET responder (served from an EventLoop polled on a thread,
// scraped with the blocking http_get client — the same pairing AirServer
// and tcsactl use in production).

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/http_admin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/watchdog.hpp"

namespace {

using namespace tcsa;

// ------------------------------------------------------------- timeline

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
  obs::SlotTimeline timeline(8);
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
  obs::SlotTimeline timeline(4);
  for (std::uint64_t s = 0; s < 11; ++s) timeline.record(make_record(s));
  EXPECT_EQ(timeline.recorded(), 11u);

  const std::vector<obs::SlotRecord> slots = timeline.snapshot();
  ASSERT_EQ(slots.size(), 4u);
  // Slots 7..10 survive; 0..6 were overwritten.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(slots[i].slot, 7u + i);
}

TEST(SlotTimeline, SnapshotMaxLimitsToTheNewestRecords) {
  obs::SlotTimeline timeline(16);
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
  obs::SlotTimeline timeline(4);
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
  obs::SlotTimeline timeline(8);
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
  obs::SlotTimeline timeline(8);
  for (std::uint64_t s = 0; s < 6; ++s) timeline.record(make_record(s));
  const obs::JsonValue doc = obs::json_parse(timeline.to_json(2));
  const obs::JsonValue& slots = doc.at("slots").expect_array("slots");
  ASSERT_EQ(slots.array.size(), 2u);
  EXPECT_EQ(slots.array[0].at("slot").number, 4.0);
}

// ------------------------------------------------------------- watchdog

TEST(SloWatchdog, ConstantLagCollapsesAllPercentiles) {
  obs::SloWatchdogConfig config;
  config.window = 16;
  obs::SloWatchdog dog(config);
  EXPECT_EQ(dog.p99_us(), 0.0);  // nothing published before a full window
  for (int i = 0; i < 16; ++i) dog.observe(250.0, i);
  EXPECT_EQ(dog.windows(), 1u);
  EXPECT_DOUBLE_EQ(dog.p50_us(), 250.0);
  EXPECT_DOUBLE_EQ(dog.p99_us(), 250.0);
  EXPECT_DOUBLE_EQ(dog.p999_us(), 250.0);
}

TEST(SloWatchdog, RampSeparatesTheTailFromTheMedian) {
  obs::SloWatchdogConfig config;
  config.window = 100;
  obs::SloWatchdog dog(config);
  for (int i = 1; i <= 100; ++i) dog.observe(static_cast<double>(i), i);
  EXPECT_EQ(dog.windows(), 1u);
  // Nearest-rank over 1..100: the median sits mid-ramp, the tail at the top.
  EXPECT_GE(dog.p50_us(), 45.0);
  EXPECT_LE(dog.p50_us(), 55.0);
  EXPECT_GE(dog.p99_us(), 99.0);
  EXPECT_GE(dog.p999_us(), dog.p99_us());
  EXPECT_GT(dog.p99_us(), dog.p50_us());
}

TEST(SloWatchdog, GaugesDecayTowardTheFreshWindow) {
  obs::SloWatchdogConfig config;
  config.window = 4;
  config.decay = 0.5;
  obs::SloWatchdog dog(config);
  // First window publishes undamped (there is no past to decay toward).
  for (int i = 0; i < 4; ++i) dog.observe(100.0, i);
  EXPECT_DOUBLE_EQ(dog.p50_us(), 100.0);
  // Second window blends 0.5 * fresh + 0.5 * old.
  for (int i = 0; i < 4; ++i) dog.observe(200.0, 10 + i);
  EXPECT_EQ(dog.windows(), 2u);
  EXPECT_DOUBLE_EQ(dog.p50_us(), 150.0);
}

TEST(SloWatchdog, BreachesCountAndWarningsAreRateLimited) {
  obs::SloWatchdogConfig config;
  config.window = 1024;  // keep the window open; breaches are per-sample
  config.breach_us = 500.0;
  config.warn_interval_us = 1'000'000;
  std::vector<std::string> warnings;
  config.on_warn = [&](const std::string& message) {
    warnings.push_back(message);
  };
  obs::SloWatchdog dog(config);

  dog.observe(100.0, 0);           // under the SLO: no breach
  dog.observe(900.0, 10);          // breach #1 — warns (first is free)
  dog.observe(901.0, 20);          // breach #2 — inside the warn interval
  dog.observe(902.0, 2'000'000);   // breach #3 — interval elapsed, warns
  EXPECT_EQ(dog.breaches(), 3u);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("900"), std::string::npos);
}

TEST(SloWatchdog, ZeroThresholdDisablesBreachChecks) {
  obs::SloWatchdogConfig config;
  config.window = 8;
  config.breach_us = 0.0;
  bool warned = false;
  config.on_warn = [&](const std::string&) { warned = true; };
  obs::SloWatchdog dog(config);
  for (int i = 0; i < 8; ++i) dog.observe(1e9, i);
  EXPECT_EQ(dog.breaches(), 0u);
  EXPECT_FALSE(warned);
}

TEST(SloWatchdog, PublishesGaugesAndBreachCounterEvenWhenDisabled) {
  // The watchdog uses the *_always recorders: SLO state must stay visible
  // on a scrape even when per-request recording is gated off.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  obs::SloWatchdogConfig config;
  config.window = 4;
  config.breach_us = 10.0;
  config.on_warn = [](const std::string&) {};
  obs::SloWatchdog dog(config);
  for (int i = 0; i < 4; ++i) dog.observe(40.0, i);
  obs::set_enabled(was_enabled);

  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter_value("tcsa_slo_breach_total"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("tcsa_slot_lag_p99_us"), 40.0);
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

}  // namespace
