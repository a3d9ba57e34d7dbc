// sweep.hpp — the Figure-5 experiment driver.
//
// One routine shared by benches, examples and the integration tests: sweep
// the channel count from 1 to the Theorem 3.1 minimum, build a schedule per
// method at every point, simulate the paper's 3000-request stream, and
// collect AvgD (plus the analytic prediction and diagnostics). Keeping the
// driver in the library guarantees every consumer reports numbers from the
// identical procedure.
#pragma once

#include <vector>

#include "core/api.hpp"
#include "model/workload.hpp"
#include "obs/metrics.hpp"
#include "sim/broadcast_sim.hpp"

namespace tcsa {

/// One (channels, method) measurement.
struct SweepPoint {
  SlotCount channels = 0;
  Method method = Method::kPamad;
  double avg_delay = 0.0;        ///< simulated AvgD (the paper's metric)
  double predicted_delay = 0.0;  ///< analytic model at the chosen S
  double miss_rate = 0.0;
  double p95_delay = 0.0;
  SlotCount t_major = 0;
  SlotCount window_overflows = 0;
};

/// Sweep recipe. Defaults reproduce Figure 5's setup for one distribution.
struct SweepConfig {
  std::vector<Method> methods = {Method::kPamad, Method::kMpb, Method::kOpt};
  SlotCount min_channels = 1;    ///< first swept channel count
  SlotCount max_channels = 0;    ///< 0 = Theorem 3.1 minimum
  SlotCount step = 1;            ///< channel increment
  SimConfig sim;                 ///< 3000 uniform requests by default
};

/// Runs the sweep; points are ordered by channels, then by method order in
/// `config.methods`. Every point draws an independent request stream forked
/// from `config.sim.seed` so adding a method never shifts another's stream.
std::vector<SweepPoint> run_sweep(const Workload& workload,
                                  const SweepConfig& config);

/// run_sweep distributed over `threads` worker threads (0 = hardware
/// concurrency). Points are independent by construction (per-point forked
/// seeds, immutable workload), so the result is bit-identical to the serial
/// driver in the same order — asserted in tests.
std::vector<SweepPoint> run_sweep_parallel(const Workload& workload,
                                           const SweepConfig& config,
                                           unsigned threads = 0);

/// A sweep plus the observability record of producing it: the metrics delta
/// attributable to this sweep (search nodes, placements, simulated requests,
/// wait histogram, pool activity, ...), exportable as JSON or Prometheus
/// text. Points are identical to run_sweep_parallel with the same arguments.
struct SweepReport {
  std::vector<SweepPoint> points;
  obs::MetricsSnapshot metrics;
};

/// Runs the sweep with metric recording forced on (the previous enable state
/// is restored afterwards) and captures the sweep's own registry delta.
SweepReport run_sweep_with_metrics(const Workload& workload,
                                   const SweepConfig& config,
                                   unsigned threads = 1);

}  // namespace tcsa
