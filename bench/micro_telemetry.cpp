// micro_telemetry.cpp — cost of the live telemetry plane, measured where
// it runs: the airing loop (timeline record + watchdog observe are paid
// every slot) and the scrape path (timeline snapshot + Prometheus
// exposition are paid per admin request).
//
//   * BM_TimelineRecord — one seqlock ring append; the per-slot tax the
//     airing loop pays for /slots forensics. Must stay in the tens of
//     nanoseconds: at 300us slots even 1us would be 0.3% of the budget.
//     timeline_bytes_total is the ring's size, capacity x 32-byte cells.
//   * BM_TimelineSnapshot — copying a full 4096-cell ring out from a
//     scraper's thread, the /slots handler's dominant cost.
//   * BM_WatchdogObserve — the whole per-slot call the server makes: one
//     timeline record plus the watchdog's breach check.
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

constexpr std::size_t kRing = 4096;      // the server's /slots ring
constexpr std::uint32_t kSlotUs = 300;  // a 300 us slot clock

tcsa::obs::SlotRecord make_record(std::uint64_t slot) {
  tcsa::obs::SlotRecord rec;
  rec.slot = slot;
  rec.scheduled_us = static_cast<std::int64_t>(slot * kSlotUs);
  rec.actual_us = rec.scheduled_us + 7;
  rec.bytes_flushed = 4096;
  rec.sessions = 2000;
  rec.evictions = 0;
  rec.generation = 1;
  rec.aired_mask = 0xF;
  return rec;
}

void BM_TimelineRecord(benchmark::State& state) {
  tcsa::obs::SlotTimeline timeline(kRing, kSlotUs);
  std::uint64_t slot = 0;
  for (auto _ : state) {
    timeline.record(make_record(slot++));
  }
  // Fixed pass for the counter gate: one ring's worth of appends, exact on
  // every machine regardless of how many iterations the timing loop ran.
  tcsa::obs::SlotTimeline fixed(kRing, kSlotUs);
  for (std::uint64_t s = 0; s < kRing; ++s) fixed.record(make_record(s));
  state.counters["timeline_records_total"] =
      static_cast<double>(fixed.recorded());
  state.counters["timeline_cells"] = static_cast<double>(kRing);
  // The ring's footprint: a record that grows shows its cost here.
  state.counters["timeline_bytes_total"] = static_cast<double>(
      fixed.capacity() * tcsa::obs::SlotTimeline::kCellBytes);
}
BENCHMARK(BM_TimelineRecord);

void BM_TimelineSnapshot(benchmark::State& state) {
  tcsa::obs::SlotTimeline timeline(kRing, kSlotUs);
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
  constexpr double kNeverBreaches = 1e9;  // measure the healthy path
  const auto quiet = [](const std::string&) {};
  tcsa::obs::SlotTimeline timeline(kRing, kSlotUs);
  tcsa::obs::SloWatchdog dog(kNeverBreaches, quiet);
  std::uint64_t slot = 0;
  for (auto _ : state) {
    const tcsa::obs::SlotRecord rec = make_record(slot++);
    timeline.record(rec);
    dog.observe(static_cast<double>(rec.lag_us()), rec.actual_us);
  }
  // Fixed pass for the counter gate: 1024 slots lagging s mod 400 us
  // against a 300 us SLO breach on lags 301..399 of the first two
  // 400-slot blocks, exactly 2 x 99 = 198 times.
  tcsa::obs::SloWatchdog fixed(300.0, quiet);
  for (std::int64_t s = 0; s < 1024; ++s)
    fixed.observe(static_cast<double>(s % 400), s * 300);
  state.counters["watchdog_breaches_total"] =
      static_cast<double>(fixed.breaches());
}
BENCHMARK(BM_WatchdogObserve);

void BM_PrometheusExpose(benchmark::State& state) {
  // A registry shaped like a live server's: the tcsa_server_* counter
  // family, a handful of gauges, and one latency histogram.
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
      "tcsa_bench_expose_lag_us", "expose bench histogram");
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
