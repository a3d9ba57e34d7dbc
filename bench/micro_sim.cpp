// M2 — simulator and index microbenchmarks (google-benchmark).
//
// The access simulator answers wait queries via the AppearanceIndex; these
// benches size its build and query costs and the end-to-end cost of a
// 3000-request AvgD measurement (one Figure-5 data point).
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"
#include "core/pamad.hpp"
#include "model/appearance_index.hpp"
#include "sim/broadcast_sim.hpp"
#include "sim/hybrid.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

namespace {

using namespace tcsa;

void BM_AppearanceIndexBuild(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, state.range(0));
  for (auto _ : state) {
    const AppearanceIndex idx(s.program, w.total_pages());
    benchmark::DoNotOptimize(idx.cycle_length());
  }
  state.SetItemsProcessed(state.iterations() * s.program.capacity());
}
BENCHMARK(BM_AppearanceIndexBuild)->Arg(4)->Arg(16)->Arg(62);

void BM_WaitQuery(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, 16);
  const AppearanceIndex idx(s.program, w.total_pages());
  Rng rng(1);
  const auto cycle = static_cast<double>(s.program.cycle_length());
  for (auto _ : state) {
    const auto page = static_cast<PageId>(
        rng.uniform_int(0, w.total_pages() - 1));
    benchmark::DoNotOptimize(
        idx.wait_after(page, rng.uniform_real(0.0, cycle)));
  }
}
BENCHMARK(BM_WaitQuery);

void BM_SimulateFigure5Point(benchmark::State& state) {
  // One (channels, method) cell of Figure 5: schedule + 3000 requests.
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, state.range(0));
  SimConfig config;
  for (auto _ : state) {
    const SimResult r = simulate_requests(s.program, w, config);
    benchmark::DoNotOptimize(r.avg_delay);
  }
  state.SetItemsProcessed(state.iterations() * config.requests.count);
}
BENCHMARK(BM_SimulateFigure5Point)->Arg(4)->Arg(16)->Arg(62);

void BM_ComputeWaits(benchmark::State& state) {
  // The wait kernel in isolation: batched (page-grouped) vs scalar
  // (per-request binary search in stream order); range(0) selects the
  // path. End-to-end simulate_requests also pays a quantile sort over all
  // delays, which dwarfs the wait kernel — this bench removes that floor.
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, 16);
  const AppearanceIndex idx(s.program, w.total_pages());
  RequestConfig config;
  config.count = 100000;
  Rng rng(11);
  const auto requests = generate_requests(
      w, static_cast<double>(s.program.cycle_length()), config, rng);
  const bool reference = state.range(0) != 0;
  std::vector<double> waits(requests.size());
  for (auto _ : state) {
    if (reference) {
      for (std::size_t i = 0; i < requests.size(); ++i)
        waits[i] = idx.wait_after(requests[i].page, requests[i].arrival);
    } else {
      compute_waits(idx, w.total_pages(), requests, waits);
    }
    benchmark::DoNotOptimize(waits.data());
  }
  state.SetLabel(reference ? "reference" : "batched");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_ComputeWaits)->Arg(0)->Arg(1);

void BM_SimulateRequestStream(benchmark::State& state) {
  // End-to-end batched vs scalar simulate over the same pre-generated
  // stream (wait kernel + statistics; the shared quantile sort sets a
  // floor on both rows).
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  const PamadSchedule s = schedule_pamad(w, 16);
  const AppearanceIndex idx(s.program, w.total_pages());
  RequestConfig config;
  config.count = 100000;
  Rng rng(11);
  const auto requests = generate_requests(
      w, static_cast<double>(s.program.cycle_length()), config, rng);
  const bool reference = state.range(0) != 0;
  for (auto _ : state) {
    const SimResult r = reference
                            ? simulate_requests_reference(idx, w, requests)
                            : simulate_requests(idx, w, requests);
    benchmark::DoNotOptimize(r.avg_delay);
  }
  state.SetLabel(reference ? "reference" : "batched");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
  if (!reference) {
    // One untimed instrumented run attaches the stream's registry delta
    // (deterministic: the request stream is fixed above).
    const auto delta = tcsa_bench::instrumented_delta([&] {
      benchmark::DoNotOptimize(simulate_requests(idx, w, requests).avg_delay);
    });
    tcsa_bench::attach_counters(state, delta,
                                {"tcsa_sim_requests_total",
                                 "tcsa_sim_deadline_misses_total"});
  }
}
BENCHMARK(BM_SimulateRequestStream)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_GroupOfLookup(benchmark::State& state) {
  // The per-request page -> group lookup, now a dense table read.
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  Rng rng(3);
  for (auto _ : state) {
    const auto page =
        static_cast<PageId>(rng.uniform_int(0, w.total_pages() - 1));
    benchmark::DoNotOptimize(w.group_of(page));
  }
}
BENCHMARK(BM_GroupOfLookup);

void BM_RequestGeneration(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform);
  RequestConfig config;
  config.count = state.range(0);
  Rng rng(9);
  for (auto _ : state) {
    const auto requests = generate_requests(w, 1000.0, config, rng);
    benchmark::DoNotOptimize(requests.size());
  }
  state.SetItemsProcessed(state.iterations() * config.count);
}
BENCHMARK(BM_RequestGeneration)->Arg(3000)->Arg(100000);

void BM_HybridSimulation(benchmark::State& state) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 6, 200, 4, 2);
  const PamadSchedule s = schedule_pamad(w, 4);
  HybridConfig config;
  config.horizon = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const HybridResult r = simulate_hybrid(s.program, w, config);
    benchmark::DoNotOptimize(r.pulled);
  }
}
BENCHMARK(BM_HybridSimulation)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_ZipfSamplerBuild(benchmark::State& state) {
  const auto weights = zipf_weights(static_cast<std::size_t>(state.range(0)), 0.8);
  for (auto _ : state) {
    const DiscreteSampler sampler(weights);
    benchmark::DoNotOptimize(sampler.size());
  }
}
BENCHMARK(BM_ZipfSamplerBuild)->Arg(1000)->Arg(100000);

}  // namespace
