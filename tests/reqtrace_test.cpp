// Tests for the request-journey layer: the NTP-style clock-offset
// estimator, the crash-safe flight recorder (including a SIGKILL'd child),
// trace-id minting, the bounded log-linear histogram and the request
// percentiles built on it.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/clock_sync.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tcsa::obs {
namespace {

// ------------------------------------------------------------ clock sync

TEST(ClockOffsetEstimator, SymmetricExchangeRecoversExactOffset) {
  // Server clock runs 5000us ahead of the client's; both legs take 40us.
  ClockOffsetEstimator est;
  EXPECT_FALSE(est.has_estimate());
  const std::uint64_t t0 = 1000;
  const std::uint64_t t1 = t0 + 40 + 5000;  // arrive, on the server clock
  const std::uint64_t t2 = t1 + 10;         // 10us of server hold time
  const std::uint64_t t3 = t0 + 40 + 10 + 40;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.offset_us(), 5000);
  EXPECT_EQ(est.rtt_us(), 80u);
  EXPECT_EQ(est.samples(), 1u);
}

TEST(ClockOffsetEstimator, NegativeOffsetWhenServerClockLags) {
  // Server clock 3ms behind: legs of 25us each, 5us hold.
  ClockOffsetEstimator est;
  const std::uint64_t t0 = 100000;
  const std::uint64_t t1 = t0 + 25 - 3000;
  const std::uint64_t t2 = t1 + 5;
  const std::uint64_t t3 = t0 + 25 + 5 + 25;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.offset_us(), -3000);
  EXPECT_EQ(est.rtt_us(), 50u);
}

TEST(ClockOffsetEstimator, AsymmetricPathErrorBoundedByHalfRtt) {
  // True offset is 0, but the outbound leg takes 90us and the return 10us.
  // The estimator cannot see the asymmetry; its error must stay within
  // rtt/2 of the truth, which is the documented bound.
  ClockOffsetEstimator est;
  const std::uint64_t t0 = 5000;
  const std::uint64_t t1 = t0 + 90;
  const std::uint64_t t2 = t1 + 20;
  const std::uint64_t t3 = t2 + 10;
  est.add_sample(t0, t1, t2, t3);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.rtt_us(), 100u);
  const std::int64_t error = est.offset_us() - 0;
  EXPECT_LE(std::abs(error), static_cast<std::int64_t>(est.rtt_us()) / 2);
  // For this exchange the bias is exactly (out - back) / 2 = +40us.
  EXPECT_EQ(est.offset_us(), 40);
}

TEST(ClockOffsetEstimator, KeepsMinimumRttSample) {
  ClockOffsetEstimator est;
  // Slow, badly-biased exchange first: rtt 400us, offset reads 1200.
  est.add_sample(0, 1300, 1310, 400);
  ASSERT_TRUE(est.has_estimate());
  EXPECT_EQ(est.rtt_us(), 390u);
  // A tight exchange refines it: rtt 30us, near-symmetric legs.
  est.add_sample(2000, 3010, 3020, 2040);
  EXPECT_EQ(est.rtt_us(), 30u);
  EXPECT_EQ(est.offset_us(), 995);
  // A later, slower exchange must NOT displace the tight one.
  est.add_sample(5000, 6500, 6510, 5600);
  EXPECT_EQ(est.rtt_us(), 30u);
  EXPECT_EQ(est.offset_us(), 995);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(ClockOffsetEstimator, EqualRttTieGoesToNewerSample) {
  // Two exchanges with identical rtt but drifted offsets: the estimator
  // keeps the newer one so a long-lived client tracks drift.
  ClockOffsetEstimator est;
  est.add_sample(0, 1020, 1030, 60);    // rtt 50, offset ~1005
  est.add_sample(100, 1920, 1930, 160); // rtt 50, offset ~1805
  EXPECT_EQ(est.rtt_us(), 50u);
  EXPECT_EQ(est.offset_us(), 1795);
}

TEST(ClockOffsetEstimator, DropsImpossibleSamples) {
  ClockOffsetEstimator est;
  // Ack "arrived" before the request left.
  est.add_sample(1000, 2000, 2010, 900);
  EXPECT_FALSE(est.has_estimate());
  // Server "sent" the ack before receiving the request.
  est.add_sample(1000, 2010, 2000, 1100);
  EXPECT_FALSE(est.has_estimate());
  // Server held the request longer than the whole exchange took.
  est.add_sample(1000, 2000, 2500, 1100);
  EXPECT_FALSE(est.has_estimate());
  EXPECT_EQ(est.samples(), 0u);
  // A sane sample still lands after the garbage.
  est.add_sample(1000, 2020, 2030, 1050);
  EXPECT_TRUE(est.has_estimate());
  EXPECT_EQ(est.samples(), 1u);
}

// ------------------------------------------------------------- trace ids

TEST(MintTraceId, NonzeroUniqueAndPidTagged) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = mint_trace_id();
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id >> 40,
              static_cast<std::uint64_t>(::getpid()) & ((1ull << 24) - 1))
        << "high bits must carry the pid";
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(ReqStageName, CoversTaxonomyAndRejectsGarbage) {
  EXPECT_STREQ(req_stage_name(ReqStage::kClientSent), "client.req.sent");
  EXPECT_STREQ(req_stage_name(ReqStage::kClientDone), "client.req.done");
  EXPECT_STREQ(req_stage_name(ReqStage::kServerRecv), "server.req.recv");
  EXPECT_STREQ(req_stage_name(ReqStage::kServerFlushed),
               "server.req.flushed");
  EXPECT_STREQ(req_stage_name(static_cast<ReqStage>(255)), "req.unknown");
}

// -------------------------------------------------------- flight recorder

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("tcsa_flight_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(FlightRecorderTest, RoundTripPreservesEveryField) {
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 16)) << rec.error();
  EXPECT_TRUE(rec.is_open());
  rec.record(0xABCDEF, ReqStage::kClientSent, 111, 7);
  rec.record(0xABCDEF, ReqStage::kServerRecv, 222, 3);
  rec.record(0x123456, ReqStage::kClientDone,
             333, static_cast<std::uint64_t>(-42));
  EXPECT_EQ(rec.recorded(), 3u);
  rec.close();
  EXPECT_FALSE(rec.is_open());

  bool sealed = false;
  const std::vector<FlightEvent> events = flight_load(path_, &sealed);
  EXPECT_TRUE(sealed) << "close() must seal the header";
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ordinal, 1u);
  EXPECT_EQ(events[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(events[0].stage,
            static_cast<std::uint32_t>(ReqStage::kClientSent));
  EXPECT_EQ(events[0].t_us, 111u);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].stage,
            static_cast<std::uint32_t>(ReqStage::kServerRecv));
  EXPECT_EQ(events[2].ordinal, 3u);
  EXPECT_EQ(static_cast<std::int64_t>(events[2].arg), -42);
}

TEST_F(FlightRecorderTest, WrapKeepsTheMostRecentCapacityEvents) {
  constexpr std::uint32_t kCapacity = 8;
  constexpr std::uint64_t kTotal = 27;
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, kCapacity)) << rec.error();
  for (std::uint64_t i = 1; i <= kTotal; ++i)
    rec.record(i, ReqStage::kServerFlushed, i * 10, i);
  EXPECT_EQ(rec.recorded(), kTotal);
  rec.close();

  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kCapacity));
  // Exactly ordinals 20..27, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ordinal, kTotal - kCapacity + 1 + i);
    EXPECT_EQ(events[i].trace_id, events[i].ordinal);
    EXPECT_EQ(events[i].t_us, events[i].ordinal * 10);
  }
}

TEST_F(FlightRecorderTest, TornCellIsDroppedNotMisread) {
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 4)) << rec.error();
  rec.record(1, ReqStage::kClientSent, 10, 0);
  rec.record(2, ReqStage::kClientAcked, 20, 0);
  rec.record(3, ReqStage::kClientDone, 30, 0);
  rec.close();

  // Tear cell index 1 (ordinal 2) the way a mid-write SIGKILL would: the
  // commit ordinal never lands. Header is 64 bytes, cells 48, commit at
  // +40 inside the cell.
  {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const std::uint64_t stale = 0;
    file.seekp(64 + 1 * 48 + 40);
    file.write(reinterpret_cast<const char*>(&stale), sizeof stale);
  }
  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ordinal, 1u);
  EXPECT_EQ(events[1].ordinal, 3u);
}

TEST_F(FlightRecorderTest, RejectsForeignAndTruncatedFiles) {
  {
    std::ofstream file(path_, std::ios::binary);
    file << "this is not a flight ring, it is barely a file";
  }
  EXPECT_THROW(flight_load(path_), std::runtime_error);
  EXPECT_THROW(flight_load(path_ + ".missing"), std::runtime_error);

  // A valid header claiming more cells than the file holds.
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, 64)) << rec.error();
  rec.record(1, ReqStage::kClientSent, 1, 0);
  rec.close();
  std::filesystem::resize_file(path_, 64 + 10 * 48);
  EXPECT_THROW(flight_load(path_), std::runtime_error);
}

TEST_F(FlightRecorderTest, RecordWhileClosedIsANoOp) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.is_open());
  rec.record(1, ReqStage::kClientSent, 1, 0);  // must not crash
  EXPECT_EQ(rec.recorded(), 0u);
  rec.seal();  // also a no-op while closed
  EXPECT_FALSE(rec.open(path_, 0)) << "zero capacity must be rejected";
  EXPECT_FALSE(rec.error().empty());
}

TEST_F(FlightRecorderTest, ConcurrentWritersLoseNoCommittedRecords) {
  // Capacity exceeds the total record count, so no writer laps another:
  // every cell is written exactly once and the replay must be exact. (The
  // wrap path is covered single-threaded above; lapped-writer races are
  // allowed to shed cells by design, which would make exact assertions
  // here flaky.)
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  constexpr std::uint32_t kCapacity = 16384;
  FlightRecorder rec;
  ASSERT_TRUE(rec.open(path_, kCapacity)) << rec.error();
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        rec.record((static_cast<std::uint64_t>(t) << 32) | i,
                   ReqStage::kServerEncoded, i, static_cast<std::uint64_t>(t));
    });
  for (auto& w : writers) w.join();
  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  rec.close();

  const std::vector<FlightEvent> events = flight_load(path_);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::uint64_t prev = 0;
  for (const FlightEvent& event : events) {
    EXPECT_EQ(event.ordinal, prev + 1) << "ordinals must be gap-free";
    prev = event.ordinal;
    const std::uint64_t thread = event.trace_id >> 32;
    ASSERT_LT(thread, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(event.arg, thread) << "payload fields written by different "
                                    "threads must not interleave";
    EXPECT_EQ(event.t_us, event.trace_id & 0xFFFFFFFFu);
  }
}

TEST_F(FlightRecorderTest, SigkilledChildLeavesAReadableRing) {
  // The whole point of MAP_SHARED: a child that is killed dead — no
  // destructors, no close(), no seal — still leaves every committed
  // record in the page cache for the parent to replay.
  constexpr std::uint64_t kEvents = 40;
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    FlightRecorder rec;
    if (!rec.open(path_, 64)) _exit(2);
    for (std::uint64_t i = 1; i <= kEvents; ++i)
      rec.record(0xF00D00 + i, ReqStage::kServerFlushed, i * 100, i);
    ::kill(::getpid(), SIGKILL);
    _exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  bool sealed = true;
  const std::vector<FlightEvent> events = flight_load(path_, &sealed);
  EXPECT_FALSE(sealed) << "a SIGKILL'd writer cannot have sealed the ring";
  ASSERT_EQ(events.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    EXPECT_EQ(events[i].ordinal, i + 1);
    EXPECT_EQ(events[i].trace_id, 0xF00D00 + i + 1);
    EXPECT_EQ(events[i].t_us, (i + 1) * 100);
  }
}

// -------------------------------------------------------- ReqPercentiles

/// Flips the process-wide metrics gate on for one test and restores the
/// previous state after, so suite ordering stays irrelevant.
class MetricsEnabledScope {
 public:
  MetricsEnabledScope() : was_(enabled()) {
    set_enabled(true);
    reset_metrics();
  }
  ~MetricsEnabledScope() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(ReqPercentiles, NearestRankMatchesHandComputedValues) {
  MetricsEnabledScope metrics_on;
  ReqPercentiles pct("test_reqtrace_delay", "us", "test percentiles",
                     {100.0, 1000.0});
  EXPECT_EQ(pct.percentile(0.5), 0.0) << "empty reservoir reads 0";
  for (int i = 1; i <= 100; ++i) pct.record(static_cast<double>(i));
  EXPECT_EQ(pct.count(), 100u);
  // Nearest rank over 1..100: ceil(q*100) picks the value directly.
  EXPECT_EQ(pct.percentile(0.50), 50.0);
  EXPECT_EQ(pct.percentile(0.99), 99.0);
  EXPECT_EQ(pct.percentile(1.0), 100.0);
  EXPECT_EQ(pct.percentile(0.0), 1.0);

  pct.publish();
  const MetricsSnapshot snap = snapshot();
  EXPECT_EQ(snap.gauge_value("test_reqtrace_delay_p50_us"), 50.0);
  EXPECT_EQ(snap.gauge_value("test_reqtrace_delay_p99_us"), 99.0);
  const HistogramSnapshot* hist = snap.histogram("test_reqtrace_delay_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total(), 100u);
}

TEST(ReqPercentiles, LargeStreamStaysWithinOnePercent) {
  MetricsEnabledScope metrics_on;
  ReqPercentiles pct("test_reqtrace_big", "us", "large stream test", {1.0});
  // Far past the old 2^17-sample reservoir; a uniform ramp 0..total-1 keeps
  // the nearest-rank truth known: rank ceil(q*total) is value rank-1.
  const std::uint64_t total = (std::uint64_t{1} << 17) + 60000;
  for (std::uint64_t i = 0; i < total; ++i)
    pct.record(static_cast<double>(i));
  EXPECT_EQ(pct.count(), total);
  for (const double q : {0.50, 0.99, 0.9999}) {
    const double truth =
        static_cast<double>(tcsa::nearest_rank_position(q, total) - 1);
    EXPECT_NEAR(pct.percentile(q), truth, truth * 0.01) << "q=" << q;
  }
  EXPECT_EQ(pct.percentile(0.0), 0.0);
  EXPECT_EQ(pct.percentile(1.0), static_cast<double>(total - 1));
}

// ---------------------------------------------------------- LogHistogram

/// Seeded heavy-tailed and bimodal streams, each with a negative share
/// (slack goes negative when a promise breaks).
std::vector<double> test_stream(const std::string& shape, std::uint64_t seed) {
  tcsa::Rng rng(seed);
  std::vector<double> out;
  for (int i = 0; i < 50000; ++i) {
    double x = 0.0;
    if (shape == "pareto") {
      x = 100.0 / std::pow(1.0 - rng.uniform01(), 1.0 / 1.5);
    } else if (shape == "lognormal") {
      x = std::exp(rng.normal(std::log(2000.0), 1.2));
    } else {
      x = rng.bernoulli(0.7) ? rng.normal(800.0, 120.0)
                             : rng.normal(40000.0, 5000.0);
    }
    out.push_back(rng.bernoulli(0.2) ? -x : x);
  }
  return out;
}

TEST(LogHistogram, WithinOnePercentOfNearestRank) {
  for (const std::string shape : {"pareto", "lognormal", "bimodal"}) {
    const std::vector<double> stream = test_stream(shape, 1013);
    LogHistogram hist;
    for (const double x : stream) hist.record(x);
    ASSERT_EQ(hist.count(), stream.size());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<double> scratch(stream);
      const double exact = tcsa::nearest_rank(scratch, q);
      // Values are rounded to integer units first, so below ~50 in
      // magnitude the half-unit rounding, not the 1% bound, dominates.
      EXPECT_NEAR(hist.quantile(q), exact,
                  std::max(std::abs(exact) * 0.01, 0.5))
          << shape << " q=" << q;
    }
    std::vector<double> scratch(stream);
    EXPECT_EQ(hist.quantile(0.0), tcsa::nearest_rank(scratch, 0.0))
        << "extremes are exact";
    EXPECT_EQ(hist.quantile(1.0), tcsa::nearest_rank(scratch, 1.0));
  }
}

TEST(LogHistogram, MergeOfHalvesEqualsTheWhole) {
  const std::vector<double> stream = test_stream("lognormal", 7);
  LogHistogram whole, first, second;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    whole.record(stream[i]);
    (i < stream.size() / 2 ? first : second).record(stream[i]);
  }
  first.merge(second);
  EXPECT_TRUE(first == whole) << "bucket for bucket, extremes included";
  LogHistogram empty;
  empty.merge(whole);
  EXPECT_TRUE(empty == whole);
}

TEST(LogHistogram, ConstantStreamReadsBackExactly) {
  for (const double value : {1234.567, -98765.4321, 3.0}) {
    LogHistogram hist;
    for (int i = 0; i < 1000; ++i) hist.record(value);
    for (const double q : {0.0, 0.5, 0.99, 1.0})
      EXPECT_EQ(hist.quantile(q), value) << value << " q=" << q;
  }
}

TEST(LogHistogram, SmallIntegersReadBackExactly) {
  // Unit-width buckets below 128: nearest rank over 1..100 is exact.
  LogHistogram hist;
  for (int i = 100; i >= 1; --i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.quantile(0.50), 50.0);
  EXPECT_EQ(hist.quantile(0.99), 99.0);
  EXPECT_EQ(hist.quantile(0.01), 1.0);
  const std::array<double, 3> qs{0.25, 0.5, 0.75};
  std::array<double, 3> out{};
  hist.quantiles(qs, out);
  EXPECT_EQ(out[0], 25.0);
  EXPECT_EQ(out[1], 50.0);
  EXPECT_EQ(out[2], 75.0);
}

TEST(LogHistogram, EmptyReadsZero) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile(0.5), 0.0);
  EXPECT_EQ(hist.quantile(1.0), 0.0);
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
}

TEST(LogHistogram, StorageIsFixedAndHugeValuesSaturate) {
  LogHistogram hist;
  const std::size_t bytes = hist.storage_bytes();
  EXPECT_LE(bytes, std::size_t{64} * 1024);
  hist.record(std::nan(""));  // ignored
  hist.record(1e300);
  hist.record(-1e300);
  for (int i = 0; i < 100000; ++i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 100002u);
  EXPECT_EQ(hist.storage_bytes(), bytes);
  EXPECT_EQ(hist.min(), -1e300);
  EXPECT_EQ(hist.max(), 1e300);
  EXPECT_NEAR(hist.quantile(0.5), 50000.0, 500.0);
}

}  // namespace
}  // namespace tcsa::obs
