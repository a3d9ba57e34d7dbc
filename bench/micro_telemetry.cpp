// micro_telemetry.cpp — cost of the live telemetry plane, measured where
// it runs: the airing loop (timeline record + watchdog observe are paid
// every slot) and the scrape path (timeline snapshot + Prometheus
// exposition are paid per admin request).
//
//   * BM_TimelineRecord — one seqlock ring append; the per-slot tax the
//     airing loop pays for /slots forensics. Must stay in the tens of
//     nanoseconds: at 300us slots even 1us would be 0.3% of the budget.
//   * BM_TimelineSnapshot — copying a full 4096-cell ring out from a
//     scraper's thread, the /slots handler's dominant cost.
//   * BM_WatchdogObserve — one lag sample into the rolling window,
//     amortizing the percentile close-out across the window length.
//   * BM_PrometheusExpose — registry scrape + text exposition for a
//     registry the size the server actually exposes.
//
// The *_total counters are exact by construction (fixed constants), so
// BENCH_micro.json stays machine-independent for the CI counter gate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/watchdog.hpp"

namespace {

constexpr std::size_t kRing = 4096;  // the server default (--timeline-slots)

tcsa::obs::SlotRecord make_record(std::uint64_t slot) {
  tcsa::obs::SlotRecord rec;
  rec.slot = slot;
  rec.scheduled_us = static_cast<std::int64_t>(slot * 300);
  rec.actual_us = static_cast<std::int64_t>(slot * 300 + 7);
  rec.bytes_flushed = 4096;
  rec.sessions = 2000;
  rec.evictions = 0;
  rec.generation = 1;
  rec.aired_mask = 0xF;
  return rec;
}

void BM_TimelineRecord(benchmark::State& state) {
  tcsa::obs::SlotTimeline timeline(kRing);
  std::uint64_t slot = 0;
  for (auto _ : state) {
    timeline.record(make_record(slot++));
  }
  // Fixed pass for the counter gate: one ring's worth of appends, exact on
  // every machine regardless of how many iterations the timing loop ran.
  tcsa::obs::SlotTimeline fixed(kRing);
  for (std::uint64_t s = 0; s < kRing; ++s) fixed.record(make_record(s));
  state.counters["timeline_records_total"] =
      static_cast<double>(fixed.recorded());
  state.counters["timeline_cells"] = static_cast<double>(kRing);
}
BENCHMARK(BM_TimelineRecord);

void BM_TimelineSnapshot(benchmark::State& state) {
  tcsa::obs::SlotTimeline timeline(kRing);
  for (std::uint64_t slot = 0; slot < kRing; ++slot) {
    timeline.record(make_record(slot));
  }
  std::size_t copied = 0;
  for (auto _ : state) {
    copied = timeline.snapshot().size();
    benchmark::DoNotOptimize(copied);
  }
  state.counters["snapshot_records_total"] = static_cast<double>(copied);
}
BENCHMARK(BM_TimelineSnapshot);

void BM_WatchdogObserve(benchmark::State& state) {
  tcsa::obs::SloWatchdogConfig config;
  config.window = 256;  // the server default (--slo-window)
  config.breach_us = 1e9;  // never breaches: measure the healthy path
  config.on_warn = [](const std::string&) {};
  tcsa::obs::SloWatchdog dog(config);
  std::int64_t now = 0;
  for (auto _ : state) {
    dog.observe(static_cast<double>(now % 40), now);
    now += 300;
  }
  // Fixed pass for the counter gate: 1024 samples close exactly 4 windows.
  tcsa::obs::SloWatchdog fixed(config);
  for (std::int64_t s = 0; s < 1024; ++s) {
    fixed.observe(static_cast<double>(s % 40), s * 300);
  }
  state.counters["watchdog_window"] = static_cast<double>(config.window);
  state.counters["watchdog_windows_closed_total"] =
      static_cast<double>(fixed.windows());
}
BENCHMARK(BM_WatchdogObserve);

void BM_PrometheusExpose(benchmark::State& state) {
  // A registry shaped like a live server's: the tcsa_server_* counter
  // family, the watchdog gauges, and one latency histogram.
  const bool was_enabled = tcsa::obs::enabled();
  tcsa::obs::set_enabled(true);
  for (int i = 0; i < 16; ++i) {
    const std::string name =
        "tcsa_bench_expose_counter_" + std::to_string(i) + "_total";
    tcsa::obs::counter_add(
        tcsa::obs::register_counter(name, "expose bench counter"), 1000 + i);
  }
  for (int i = 0; i < 8; ++i) {
    const std::string name =
        "tcsa_bench_expose_gauge_" + std::to_string(i);
    tcsa::obs::gauge_set(
        tcsa::obs::register_gauge(name, "expose bench gauge"), 1.5 * i);
  }
  const tcsa::obs::MetricId hist = tcsa::obs::register_histogram(
      "tcsa_bench_expose_lag_us", "expose bench histogram",
      {1, 5, 25, 125, 625, 3125});
  for (int i = 0; i < 1000; ++i) {
    tcsa::obs::histogram_observe(hist, static_cast<double>(i % 700));
  }

  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = tcsa::obs::snapshot().to_prometheus();
    bytes = text.size();
    benchmark::DoNotOptimize(bytes);
  }
  tcsa::obs::set_enabled(was_enabled);
  state.counters["expose_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PrometheusExpose);

}  // namespace
