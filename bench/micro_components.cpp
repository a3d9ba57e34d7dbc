// M3 — component microbenchmarks (google-benchmark): validation,
// serialisation, the water-filling bound and observability overhead.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <sstream>

#include "alloc_count.hpp"
#include "core/pamad.hpp"
#include "core/theory.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace tcsa;

void BM_ValidateProgram(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, state.range(0));
  for (auto _ : state) {
    const ValidityReport r = validate_program(s.program, w);
    benchmark::DoNotOptimize(r.worst_wait);
  }
  state.SetItemsProcessed(state.iterations() * s.program.capacity());
}
BENCHMARK(BM_ValidateProgram)->Arg(8)->Arg(32);

void BM_SerializeProgramRoundTrip(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, 16);
  for (auto _ : state) {
    const std::string text = program_to_string(s.program);
    const BroadcastProgram back = program_from_string(text);
    benchmark::DoNotOptimize(back.occupied());
  }
  state.SetItemsProcessed(state.iterations() * s.program.capacity());
}
BENCHMARK(BM_SerializeProgramRoundTrip);

void BM_WaterfillingBound(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        continuous_delay_lower_bound(w, state.range(0)));
  }
}
BENCHMARK(BM_WaterfillingBound)->Arg(1)->Arg(13);

// Observability overhead in isolation: the per-site cost instrumented code
// pays. Disabled rows are the acceptance budget (every PR-1 kernel carries
// these sites); enabled rows bound the cost of scraping-grade detail.

tcsa::obs::MetricId obs_bench_counter() {
  static const tcsa::obs::MetricId id = tcsa::obs::register_counter(
      "tcsa_bench_probe_total", "Synthetic counter for overhead benches");
  return id;
}

tcsa::obs::MetricId obs_bench_histogram() {
  static const tcsa::obs::MetricId id = tcsa::obs::register_histogram(
      "tcsa_bench_probe_value", "Synthetic histogram for overhead benches");
  return id;
}

void BM_ObsCounterAdd(benchmark::State& state) {
  const tcsa::obs::MetricId id = obs_bench_counter();
  const bool was_enabled = tcsa::obs::enabled();
  tcsa::obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) tcsa::obs::counter_add(id, 1);
  tcsa::obs::set_enabled(was_enabled);
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_ObsCounterAdd)->Arg(0)->Arg(1);

void BM_ObsHistogramObserve(benchmark::State& state) {
  const tcsa::obs::MetricId id = obs_bench_histogram();
  const bool was_enabled = tcsa::obs::enabled();
  tcsa::obs::set_enabled(state.range(0) != 0);
  double value = 0.0;
  for (auto _ : state) {
    tcsa::obs::histogram_observe(id, value);
    value = value < 20000.0 ? value + 1.0 : 0.0;
  }
  tcsa::obs::set_enabled(was_enabled);
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_ObsHistogramObserve)->Arg(0)->Arg(1);

void BM_ObsTraceSpan(benchmark::State& state) {
  const bool was_tracing = tcsa::obs::tracing_enabled();
  tcsa::obs::set_tracing_enabled(state.range(0) != 0);
  for (auto _ : state) {
    TCSA_TRACE_SPAN("bench.probe");
  }
  tcsa::obs::set_tracing_enabled(was_tracing);
  tcsa::obs::clear_trace();
  state.SetLabel(state.range(0) != 0 ? "enabled" : "disabled");
}
BENCHMARK(BM_ObsTraceSpan)->Arg(0)->Arg(1);

/// Zeroes the registry, then records a seeded stream into three histograms
/// shaped like the server's slot lag, request delay and pull delay (us).
/// Every other registered histogram stays empty.
void seed_registry_histograms() {
  struct Shape {
    const char* name;
    double median_us;
    double sigma;
  };
  static constexpr std::array<Shape, 3> kShapes{
      {{"tcsa_bench_scrape_lag_us", 200.0, 1.0},
       {"tcsa_bench_scrape_req_delay_us", 30000.0, 0.3},
       {"tcsa_bench_scrape_pull_delay_us", 5000.0, 1.5}}};
  tcsa::obs::reset_metrics();
  const bool was_enabled = tcsa::obs::enabled();
  tcsa::obs::set_enabled(true);
  tcsa::Rng rng(0x5C4A9E);
  for (const Shape& shape : kShapes) {
    const tcsa::obs::MetricId id = tcsa::obs::register_histogram(
        shape.name, "Synthetic histogram for the scrape benches");
    for (int i = 0; i < 10000; ++i)
      tcsa::obs::histogram_observe(
          id, std::exp(rng.normal(std::log(shape.median_us), shape.sigma)));
  }
  tcsa::obs::set_enabled(was_enabled);
}

void BM_ObsSnapshot(benchmark::State& state) {
  // Scrape cost with every suite's metrics registered and a fixed seeded
  // state; the import and merge benches below read the same state.
  seed_registry_histograms();
  for (auto _ : state) {
    const tcsa::obs::MetricsSnapshot snap = tcsa::obs::snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
  // Counter gate: heap bytes one scrape allocates (after one warm-up that
  // sizes the registry's reused read buffer), and what it holds.
  const tcsa::obs::MetricsSnapshot snap = tcsa::obs::snapshot();
  std::size_t buckets = 0;
  for (const tcsa::obs::HistogramSnapshot& h : snap.histograms)
    buckets += h.values.buckets().size();
  state.counters["snapshot_alloc_bytes_total"] = tcsa_bench::allocated_bytes(
      [] { benchmark::DoNotOptimize(tcsa::obs::snapshot().counters.size()); });
  state.counters["snapshot_histograms_total"] =
      static_cast<double>(snap.histograms.size());
  state.counters["snapshot_buckets_total"] = static_cast<double>(buckets);
}
BENCHMARK(BM_ObsSnapshot);

void BM_SnapshotImport(benchmark::State& state) {
  // Artifact ingestion cost: JSON text of the full live registry back to a
  // MetricsSnapshot, the inner loop of `tcsactl obs diff/report`.
  const std::string json = tcsa::obs::snapshot().to_json();
  for (auto _ : state) {
    const tcsa::obs::MetricsSnapshot snap = tcsa::obs::snapshot_from_json(json);
    benchmark::DoNotOptimize(snap.counters.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_SnapshotImport);

}  // namespace
