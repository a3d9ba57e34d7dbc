// M1 — scheduler-construction microbenchmarks (google-benchmark).
//
// Measures how long each algorithm takes to build a schedule as the
// workload scales: the paper notes OPT's "unacceptably high" search cost;
// these numbers quantify the gap between OPT, the PAMAD heuristic (a few
// microseconds of frequency search) and plain SUSC packing.
#include <benchmark/benchmark.h>

#include "bench_obs.hpp"
#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "core/mpb.hpp"
#include "core/opt.hpp"
#include "core/pamad.hpp"
#include "core/placement.hpp"
#include "core/susc.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace tcsa;

Workload bench_workload(std::int64_t n) {
  return make_paper_workload(GroupSizeShape::kUniform, 8,
                             static_cast<SlotCount>(n), 4, 2);
}

void BM_MinChannels(benchmark::State& state) {
  const Workload w = bench_workload(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(min_channels(w));
}
BENCHMARK(BM_MinChannels)->Arg(1000);

void BM_SuscSchedule(benchmark::State& state) {
  const Workload w = bench_workload(state.range(0));
  const SlotCount channels = min_channels(w);
  for (auto _ : state) {
    const BroadcastProgram p = schedule_susc(w, channels);
    benchmark::DoNotOptimize(p.occupied());
  }
  state.SetItemsProcessed(state.iterations() * w.total_pages());
}
BENCHMARK(BM_SuscSchedule)->Arg(100)->Arg(1000)->Arg(4000);

void BM_PamadFrequencySearch(benchmark::State& state) {
  const Workload w = bench_workload(1000);
  const SlotCount channels = state.range(0);
  for (auto _ : state) {
    const PamadFrequencies f = pamad_frequencies(w, channels);
    benchmark::DoNotOptimize(f.predicted_delay);
  }
}
BENCHMARK(BM_PamadFrequencySearch)->Arg(1)->Arg(13)->Arg(32)->Arg(62);

void BM_PamadFullSchedule(benchmark::State& state) {
  const Workload w = bench_workload(1000);
  const SlotCount channels = state.range(0);
  for (auto _ : state) {
    const PamadSchedule s = schedule_pamad(w, channels);
    benchmark::DoNotOptimize(s.program.occupied());
  }
}
BENCHMARK(BM_PamadFullSchedule)->Arg(1)->Arg(13)->Arg(32);

void BM_MpbSchedule(benchmark::State& state) {
  const Workload w = bench_workload(1000);
  const SlotCount channels = state.range(0);
  for (auto _ : state) {
    const MpbSchedule s = schedule_mpb(w, channels);
    benchmark::DoNotOptimize(s.program.occupied());
  }
}
BENCHMARK(BM_MpbSchedule)->Arg(13)->Arg(32);

void BM_OptFrequencySearch(benchmark::State& state) {
  const Workload w = bench_workload(1000);
  const SlotCount channels = state.range(0);
  for (auto _ : state) {
    const OptResult r = opt_frequencies(w, channels);
    benchmark::DoNotOptimize(r.predicted_delay);
  }
}
BENCHMARK(BM_OptFrequencySearch)->Arg(1)->Arg(13)->Arg(32)->Arg(62)
    ->Unit(benchmark::kMillisecond);

void BM_OptLadderSearch(benchmark::State& state) {
  // The deep-ladder stress case (h = 12) the incremental search was built
  // for; the argument is the worker count, so Arg(1) vs Arg(8) isolates
  // parallel scaling on top of the single-thread incremental gains.
  const Workload w =
      make_paper_workload(GroupSizeShape::kUniform, 12, 1200, 2, 2);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const OptResult r = opt_frequencies(w, 100, threads);
    benchmark::DoNotOptimize(r.predicted_delay);
  }
  // One untimed instrumented run attaches the search's registry delta to
  // the JSON entry (deterministic, so exact for every timed iteration).
  const auto delta = tcsa_bench::instrumented_delta([&] {
    benchmark::DoNotOptimize(opt_frequencies(w, 100, threads).predicted_delay);
  });
  tcsa_bench::attach_counters(state, delta,
                              {"tcsa_opt_nodes_total", "tcsa_opt_leaves_total",
                               "tcsa_opt_prunes_total",
                               "tcsa_opt_subtrees_total"});
}
BENCHMARK(BM_OptLadderSearch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PlacementEvenSpread(benchmark::State& state) {
  // The column-tracker placer vs the seed double-scan (reference) on the
  // same Figure-4 workload; range(0) selects the implementation so the two
  // rows land adjacent in reports.
  const Workload w = bench_workload(4000);
  const std::vector<SlotCount> S = {128, 64, 32, 16, 8, 4, 2, 1};
  const bool reference = state.range(0) != 0;
  for (auto _ : state) {
    const PlacementResult r = reference ? place_even_spread_reference(w, S, 5)
                                        : place_even_spread(w, S, 5);
    benchmark::DoNotOptimize(r.program.occupied());
  }
  state.SetLabel(reference ? "reference" : "tracker");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total_slots(w, S)));
  if (!reference) {
    const auto delta = tcsa_bench::instrumented_delta([&] {
      benchmark::DoNotOptimize(place_even_spread(w, S, 5).program.occupied());
    });
    tcsa_bench::attach_counters(
        state, delta,
        {"tcsa_placement_copies_total", "tcsa_placement_uf_jumps_total",
         "tcsa_warn_placement_window_overflow_total"});
  }
}
BENCHMARK(BM_PlacementEvenSpread)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForceSearch(benchmark::State& state) {
  // The exponential oracle on a small instance — the "unacceptably high"
  // cost the paper mentions, in miniature (grows as cap^h).
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const SlotCount cap = state.range(0);
  for (auto _ : state) {
    const OptResult r = brute_force_frequencies(w, 2, cap);
    benchmark::DoNotOptimize(r.predicted_delay);
  }
}
BENCHMARK(BM_BruteForceSearch)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
