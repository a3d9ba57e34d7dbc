// micro_reqtrace.cpp — cost of one request-journey event, measured in the
// configurations the server actually runs:
//
//   * BM_ReqEventOff — req_event with the flight recorder closed and
//     tracing disabled: the tax every obs-on build pays on the request
//     path when nobody asked for traces. Must stay within a few ns.
//   * BM_ReqEventFlight — recorder open (`serve --flight-out`): one
//     fetch_add claim plus six relaxed stores into a MAP_SHARED ring.
//     ISSUE acceptance pins this within 2x of BM_TimelineRecord in
//     micro_telemetry — both are one-cell ring appends.
//   * BM_ReqEventFlightTrace — recorder open AND tracing on (`--out-dir`):
//     adds the Chrome-trace ring append, the full-instrumentation cost.
//   * BM_FlightReplay — flight_load over a full ring, the postmortem
//     (`tcsactl trace flight`) side; off the hot path but bounded.
//   * BM_ClockOffsetAdd — folding one request/ack exchange into the
//     estimator: four subtractions and a compare, paid per ack.
//   * BM_ReqPercentilesPublish/N — the server's request-delay tails: N
//     lognormal service times recorded, the gauges republished every 64
//     completions as the flush path does. Storage is one fixed histogram, so
//     publish_ns (reported, not gated) must stay flat from 10^3 to 10^6.
//
// The *_total counters come from fixed passes (constant event counts), so
// BENCH_micro.json stays machine-independent for the CI counter gate.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/clock_sync.hpp"
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

constexpr std::uint32_t kRing = 4096;  // the server default (--flight-events)

std::string bench_ring_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("tcsa_bench_flight_" + std::to_string(::getpid()) + "_" + tag +
           ".bin"))
      .string();
}

void BM_ReqEventOff(benchmark::State& state) {
  // Neither sink armed: the branch-only floor of TCSA_REQ_EVENT.
  tcsa::obs::set_tracing_enabled(false);
  std::uint64_t t = 0;
  for (auto _ : state) {
    tcsa::obs::req_event(0xBE0000 + (t & 0xFF),
                         tcsa::obs::ReqStage::kServerRecv, t, 0);
    ++t;
  }
  state.counters["reqtrace_sinks_armed"] = 0;
}
BENCHMARK(BM_ReqEventOff);

void BM_FlightRecord(benchmark::State& state) {
  // The raw ring append — one fetch_add claim plus six relaxed stores —
  // without the req_event dispatch (instance lookup + tracing check).
  // This is the number the ISSUE pins against BM_TimelineRecord.
  const std::string path = bench_ring_path("record");
  tcsa::obs::FlightRecorder rec;
  if (!rec.open(path, kRing)) {
    state.SkipWithError(rec.error().c_str());
    return;
  }
  std::uint64_t t = 0;
  for (auto _ : state) {
    rec.record(0xBE0000 + (t & 0xFF), tcsa::obs::ReqStage::kServerRecv, t,
               0);
    ++t;
  }
  rec.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.counters["reqtrace_ring_cells"] = static_cast<double>(kRing);
}
BENCHMARK(BM_FlightRecord);

void BM_ReqEventFlight(benchmark::State& state) {
  const std::string path = bench_ring_path("flight");
  tcsa::obs::FlightRecorder& rec = tcsa::obs::FlightRecorder::instance();
  if (!rec.open(path, kRing)) {
    state.SkipWithError(rec.error().c_str());
    return;
  }
  tcsa::obs::set_tracing_enabled(false);
  std::uint64_t t = 0;
  for (auto _ : state) {
    tcsa::obs::req_event(0xBE0000 + (t & 0xFF),
                         tcsa::obs::ReqStage::kServerRecv, t, 0);
    ++t;
  }
  rec.close();

  // Fixed pass for the counter gate: exactly one ring's worth of records.
  if (!rec.open(path, kRing)) {
    state.SkipWithError(rec.error().c_str());
    return;
  }
  for (std::uint64_t i = 0; i < kRing; ++i)
    tcsa::obs::req_event(i + 1, tcsa::obs::ReqStage::kServerFlushed, i, i);
  state.counters["reqtrace_records_total"] =
      static_cast<double>(rec.recorded());
  state.counters["reqtrace_ring_cells"] = static_cast<double>(kRing);
  rec.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_ReqEventFlight);

void BM_ReqEventFlightTrace(benchmark::State& state) {
  const std::string path = bench_ring_path("flight_trace");
  tcsa::obs::FlightRecorder& rec = tcsa::obs::FlightRecorder::instance();
  if (!rec.open(path, kRing)) {
    state.SkipWithError(rec.error().c_str());
    return;
  }
  tcsa::obs::set_tracing_enabled(true);
  std::uint64_t t = 0;
  for (auto _ : state) {
    tcsa::obs::req_event(0xBE0000 + (t & 0xFF),
                         tcsa::obs::ReqStage::kServerRecv, t, 0);
    ++t;
  }
  tcsa::obs::set_tracing_enabled(false);
  rec.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.counters["reqtrace_sinks_armed"] = 2;
}
BENCHMARK(BM_ReqEventFlightTrace);

void BM_FlightReplay(benchmark::State& state) {
  const std::string path = bench_ring_path("replay");
  {
    tcsa::obs::FlightRecorder rec;
    if (!rec.open(path, kRing)) {
      state.SkipWithError(rec.error().c_str());
      return;
    }
    for (std::uint64_t i = 0; i < kRing; ++i)
      rec.record(i + 1, tcsa::obs::ReqStage::kServerFlushed, i * 300, i);
    rec.close();
  }
  std::size_t replayed = 0;
  for (auto _ : state) {
    replayed = tcsa::obs::flight_load(path).size();
    benchmark::DoNotOptimize(replayed);
  }
  state.counters["flight_replay_events_total"] =
      static_cast<double>(replayed);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_FlightReplay);

void BM_ClockOffsetAdd(benchmark::State& state) {
  tcsa::obs::ClockOffsetEstimator est;
  std::uint64_t t = 0;
  for (auto _ : state) {
    // Jittered legs so the min-RTT compare takes both branches.
    est.add_sample(t, t + 5000 + (t & 0x3F), t + 5010 + (t & 0x3F),
                   t + 40 + ((t >> 3) & 0x1F));
    t += 100;
    benchmark::DoNotOptimize(est);
  }
  // Fixed pass: 1024 well-formed exchanges all fold in.
  tcsa::obs::ClockOffsetEstimator fixed;
  for (std::uint64_t i = 0; i < 1024; ++i)
    fixed.add_sample(i * 100, i * 100 + 5020, i * 100 + 5030, i * 100 + 50);
  state.counters["clock_samples_total"] = static_cast<double>(fixed.samples());
}
BENCHMARK(BM_ClockOffsetAdd);

void BM_ReqPercentilesPublish(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tcsa::Rng rng(0x5EED);
  std::vector<double> samples(n);
  for (double& x : samples) x = std::exp(rng.normal(std::log(2000.0), 1.0));

  std::uint64_t publishes = 0;
  std::chrono::nanoseconds publish_time{0};
  double p99 = 0.0;
  std::size_t retained = 0;
  for (auto _ : state) {
    tcsa::obs::ReqPercentiles pct("bench_reqpct_delay", "us",
                                  "Benchmark request delay", {1000.0});
    for (std::size_t i = 0; i < n; ++i) {
      pct.record(samples[i]);
      if (i % 64 == 0) {
        const auto start = std::chrono::steady_clock::now();
        pct.publish();
        publish_time += std::chrono::steady_clock::now() - start;
        ++publishes;
      }
    }
    p99 = pct.percentile(0.99);
    retained = pct.retained_bytes();
    benchmark::DoNotOptimize(p99);
  }
  state.counters["publish_ns"] =
      static_cast<double>(publish_time.count()) /
      static_cast<double>(publishes);
  std::vector<double> scratch(samples);
  const double exact = tcsa::nearest_rank(scratch, 0.99);
  state.counters["reqpct_samples_total"] = static_cast<double>(n);
  state.counters["reqpct_retained_bytes_total"] =
      static_cast<double>(retained);
  state.counters["reqpct_p99_rel_err_ppm_total"] =
      std::round(std::abs(p99 - exact) / exact * 1e6);
}
BENCHMARK(BM_ReqPercentilesPublish)->RangeMultiplier(10)->Range(1000, 1000000);

}  // namespace
