// M3 — component microbenchmarks (google-benchmark): validation,
// serialisation, baseline schedulers, the cache, and lossy reception.
#include <benchmark/benchmark.h>

#include <sstream>

#include "client/cache.hpp"
#include "core/bdisk.hpp"
#include "core/edf.hpp"
#include "core/pamad.hpp"
#include "core/theory.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/lossy.hpp"
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

void BM_EdfSchedule(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  for (auto _ : state) {
    const EdfSchedule s = schedule_edf(w, state.range(0));
    benchmark::DoNotOptimize(s.program.occupied());
  }
}
BENCHMARK(BM_EdfSchedule)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_BdiskSchedule(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  for (auto _ : state) {
    const BdiskSchedule s = schedule_bdisk(w, state.range(0));
    benchmark::DoNotOptimize(s.program.occupied());
  }
}
BENCHMARK(BM_BdiskSchedule)->Arg(4)->Arg(16);

void BM_WaterfillingBound(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        continuous_delay_lower_bound(w, state.range(0)));
  }
}
BENCHMARK(BM_WaterfillingBound)->Arg(1)->Arg(13);

void BM_CacheLookupInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(1000);
  const std::vector<double> prob = zipf_weights(n, 0.9);
  std::vector<double> freq(n, 4.0);
  ClientCache cache(static_cast<std::size_t>(state.range(0)),
                    CachePolicy::kPix, prob, freq);
  Rng rng(5);
  const DiscreteSampler sampler(prob);
  for (auto _ : state) {
    const auto page = static_cast<PageId>(sampler.sample(rng));
    if (!cache.lookup(page)) cache.insert(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupInsert)->Arg(32)->Arg(256);

void BM_LossySimulation(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, 13);
  const LossModel model = LossModel::independent(0.1);
  for (auto _ : state) {
    const LossySimResult r = simulate_lossy(s.program, w, model, 3000, 9);
    benchmark::DoNotOptimize(r.avg_delay);
  }
  state.SetItemsProcessed(state.iterations() * 3000);
}
BENCHMARK(BM_LossySimulation)->Unit(benchmark::kMillisecond);

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
      "tcsa_bench_probe_value", "Synthetic histogram for overhead benches",
      {1, 10, 100, 1000, 10000});
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

void BM_ObsSnapshot(benchmark::State& state) {
  // Scrape cost with the full registry populated (all suites registered).
  for (auto _ : state) {
    const tcsa::obs::MetricsSnapshot snap = tcsa::obs::snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
}
BENCHMARK(BM_ObsSnapshot);

void BM_SnapshotImport(benchmark::State& state) {
  // Artifact ingestion cost: JSON text of the full live registry back to a
  // MetricsSnapshot, the inner loop of `tcsactl obs merge/diff`.
  const std::string json = tcsa::obs::snapshot().to_json();
  for (auto _ : state) {
    const tcsa::obs::MetricsSnapshot snap = tcsa::obs::snapshot_from_json(json);
    benchmark::DoNotOptimize(snap.counters.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_SnapshotImport);

void BM_SnapshotMerge(benchmark::State& state) {
  // K-shard merge cost: merging K copies of the live registry simulates
  // collecting a K-process sweep (same names and bucket layouts per shard).
  const tcsa::obs::MetricsSnapshot shard = tcsa::obs::snapshot();
  const int shards = static_cast<int>(state.range(0));
  for (auto _ : state) {
    tcsa::obs::MetricsSnapshot merged = shard;
    for (int i = 1; i < shards; ++i) merged.merge(shard);
    benchmark::DoNotOptimize(merged.counters.size());
  }
  state.SetLabel(std::to_string(shards) + " shards");
}
BENCHMARK(BM_SnapshotMerge)->Arg(2)->Arg(8);

}  // namespace
