// bench_obs.hpp — helper for attaching metrics-registry deltas to
// google-benchmark counters.
//
// Benchmarks time the runtime-disabled path (the one users pay by default);
// the registry delta is taken from ONE extra instrumented run outside the
// timed loop, so the reported counters describe the work per call without
// perturbing the measured numbers. The kernels are deterministic, so one
// run's counts are exact for every iteration.
#pragma once

#include <benchmark/benchmark.h>

#include "obs/metrics.hpp"

namespace tcsa_bench {

/// Runs `fn` once with metric recording enabled and returns the registry
/// delta it produced. Restores the previous enable state.
template <class Fn>
tcsa::obs::MetricsSnapshot instrumented_delta(Fn&& fn) {
  const bool was_enabled = tcsa::obs::enabled();
  tcsa::obs::set_enabled(true);
  const tcsa::obs::MetricsSnapshot before = tcsa::obs::snapshot();
  fn();
  tcsa::obs::MetricsSnapshot delta = tcsa::obs::snapshot().minus(before);
  tcsa::obs::set_enabled(was_enabled);
  return delta;
}

/// Copies named registry counters into the benchmark's counter map (and so
/// into BENCH_micro.json), prefixing nothing: the registry name minus the
/// `tcsa_` prefix keys the benchmark counter.
inline void attach_counters(benchmark::State& state,
                            const tcsa::obs::MetricsSnapshot& delta,
                            std::initializer_list<const char*> names) {
  for (const char* name : names) {
    std::string key(name);
    if (key.rfind("tcsa_", 0) == 0) key = key.substr(5);
    state.counters[key] = benchmark::Counter(
        static_cast<double>(delta.counter_value(name)));
  }
}

}  // namespace tcsa_bench
