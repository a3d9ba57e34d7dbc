// M1 — scheduler-construction microbenchmarks (google-benchmark).
//
// Measures how long each algorithm takes to build a schedule as the
// workload scales: the paper notes OPT's "unacceptably high" search cost;
// these numbers quantify the gap between OPT, the PAMAD heuristic (a few
// microseconds of frequency search) and plain SUSC packing, how SUSC and
// swap-seam planning scale to catalog size against their reference scans,
// and what the swap worker's whole path costs at catalog scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "alloc_count.hpp"
#include "bench_obs.hpp"
#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "core/mpb.hpp"
#include "core/opt.hpp"
#include "core/pamad.hpp"
#include "core/placement.hpp"
#include "core/susc.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "online/adaptive.hpp"
#include "server/generation.hpp"
#include "workload/distributions.hpp"

#include "oracles.hpp"

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
  // range(0) is the page count; range(1) selects the paper's rescanning
  // Algorithm 2 (reference) instead of the cursor-and-pointer scheduler.
  const Workload w = bench_workload(state.range(0));
  const SlotCount channels = min_channels(w);
  const bool reference = state.range(1) != 0;
  for (auto _ : state) {
    const BroadcastProgram p = reference
                                   ? schedule_susc_reference(w, channels)
                                   : schedule_susc(w, channels);
    benchmark::DoNotOptimize(p.occupied());
  }
  state.SetLabel(reference ? "reference" : "cursor");
  state.SetItemsProcessed(state.iterations() * w.total_pages());
}
BENCHMARK(BM_SuscSchedule)
    ->Args({100, 0})->Args({1000, 0})->Args({4000, 0})->Args({4000, 1})
    ->Args({10000, 0})->Args({100000, 0})->Args({1000000, 0})
    ->Unit(benchmark::kMillisecond);

void BM_PlanSwapSeam(benchmark::State& state) {
  // A catalog-scale swap: 10k pages on a 128..1024-slot ladder, from Pareto
  // to lognormal group sizes, both scheduled by SUSC on a shared channel
  // count, planned from a mid-cycle boundary. range(0) selects the rotation
  // scan (reference) instead of the interval sweep.
  const Workload from =
      make_workload({128, 256, 512, 1024}, {1063, 1406, 2153, 5378});
  const Workload to =
      make_workload({128, 256, 512, 1024}, {567, 1304, 2465, 5664});
  const SlotCount channels = std::max(min_channels(from), min_channels(to));
  const BroadcastProgram p_from = schedule_susc(from, channels);
  const BroadcastProgram p_to = schedule_susc(to, channels);
  const SlotCount offset = 311;
  const bool reference = state.range(0) != 0;
  for (auto _ : state) {
    const SwapPlan plan =
        reference ? plan_swap_seam_reference(from, p_from, offset, to, p_to)
                  : plan_swap_seam(from, p_from, offset, to, p_to);
    benchmark::DoNotOptimize(plan.seam_lateness);
  }
  state.SetLabel(reference ? "reference" : "sweep");
  state.SetItemsProcessed(state.iterations() * p_to.occupied());
}
BENCHMARK(BM_PlanSwapSeam)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CatalogScale(benchmark::State& state) {
  // The layers around SUSC on the same page ladder, to find the next one
  // that grows faster than the catalog: range(0) picks the stage (0 builds
  // the AppearanceIndex of the SUSC program, 1 validates it, 2 schedules
  // PAMAD at half the Theorem 3.1 bound), range(1) the pages.
  static constexpr const char* kStage[] = {"index", "validate", "pamad"};
  const auto stage = static_cast<int>(state.range(0));
  const Workload w = bench_workload(state.range(1));
  const SlotCount channels = min_channels(w);
  const BroadcastProgram program = schedule_susc(w, channels);
  for (auto _ : state) {
    switch (stage) {
      case 0:
        benchmark::DoNotOptimize(
            AppearanceIndex(program, w.total_pages()).cycle_length());
        break;
      case 1:
        benchmark::DoNotOptimize(validate_program(program, w).worst_wait);
        break;
      default:
        benchmark::DoNotOptimize(
            schedule_pamad(w, channels / 2).program.occupied());
        break;
    }
  }
  state.SetLabel(kStage[stage]);
  state.SetItemsProcessed(state.iterations() * w.total_pages());
}
BENCHMARK(BM_CatalogScale)
    ->ArgsProduct({{0, 1, 2}, {10000, 100000, 1000000}})
    ->Unit(benchmark::kMillisecond);

void BM_SwapPath(benchmark::State& state) {
  // The swap worker's path at catalog scale, through the server's own
  // plan_generation: schedule the next catalog, validate it, plan the seam
  // from the one on air (same page count, uniform to normal group sizes,
  // SUSC on the larger Theorem 3.1 bound). The workload copy each call
  // takes is made outside the timed region. Counters: grid cells the
  // validation and seam sweeps read (each reads its programs once), and the
  // bytes each of them allocates for per-page and per-column state.
  const SlotCount n = state.range(0);
  const Workload from = bench_workload(n);
  const Workload to = make_paper_workload(GroupSizeShape::kNormal, 8, n, 4, 2);
  const SlotCount channels = std::max(min_channels(from), min_channels(to));
  const std::shared_ptr<Generation> on_air =
      plan_generation(from, channels, std::nullopt, nullptr).generation;
  on_air->offset = on_air->program.cycle_length() / 3;
  for (auto _ : state) {
    state.PauseTiming();
    Workload next = to;
    state.ResumeTiming();
    const PlannedGeneration planned =
        plan_generation(std::move(next), channels, std::nullopt, on_air.get());
    benchmark::DoNotOptimize(planned.report.worst_lateness +
                             planned.seam_lateness);
  }

  const BroadcastProgram& old_program = on_air->program;
  const SlotCount offset = on_air->offset;
  const BroadcastProgram next = choose_schedule(to, channels).program;
  state.counters["cells_read"] = benchmark::Counter(static_cast<double>(
      next.capacity() + old_program.capacity() + next.capacity()));
  using tcsa_bench::allocated_bytes;
  state.counters["validate_state_bytes"] = benchmark::Counter(allocated_bytes(
      [&] { benchmark::DoNotOptimize(validate_program(next, to).valid); }));
  state.counters["seam_state_bytes"] = benchmark::Counter(allocated_bytes([&] {
    benchmark::DoNotOptimize(
        plan_swap_seam(from, old_program, offset, to, next).offset);
  }));
  state.SetItemsProcessed(state.iterations() * n);
}
// One iteration of the 10^6-page row takes about a second, so a single run
// is one sample; repetitions give the committed rows a median and spread.
BENCHMARK(BM_SwapPath)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Repetitions(5)->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

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
