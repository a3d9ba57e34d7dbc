#include "sim/sweep.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/channel_bound.hpp"
#include "model/serialize.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace tcsa {
namespace {

obs::MetricId sweep_points_metric() {
  static const obs::MetricId id = obs::register_counter(
      "tcsa_sweep_points_total", "(channels, method) sweep points measured");
  return id;
}

/// One (channels, method) measurement — the shared kernel of both drivers.
SweepPoint measure_point(const Workload& workload, const SweepConfig& config,
                         SlotCount channels, Method method) {
  TCSA_TRACE_SPAN_VAR(span, "sweep.point");
  if (span.active())
    span.set_arg("channels", static_cast<std::uint64_t>(channels));
  obs::counter_add(sweep_points_metric(), 1);
  const ScheduleOutcome outcome = make_schedule(method, workload, channels);

  SimConfig sim = config.sim;
  // Independent stream per (channels, method): deterministic, and adding
  // a point never perturbs the others.
  sim.seed = Rng(config.sim.seed)
                 .fork(static_cast<std::uint64_t>(channels) * 131 +
                       static_cast<std::uint64_t>(method))();
  const SimResult measured = simulate_requests(outcome.program, workload, sim);

  SweepPoint point;
  point.channels = channels;
  point.method = method;
  point.avg_delay = measured.avg_delay;
  point.predicted_delay = outcome.predicted_delay;
  point.miss_rate = measured.miss_rate;
  point.p95_delay = measured.p95_delay;
  point.t_major = outcome.t_major;
  point.window_overflows = outcome.window_overflows;
  return point;
}

/// The single sweep driver: every public entry point routes here. Points
/// are independent by construction (per-point forked seeds, immutable
/// workload), so result slot i never depends on scheduling; threads == 1
/// runs inline on the calling thread with no pool spawned. A shard with
/// count > 1 measures only its round-robin slice of the grid.
std::vector<SweepPoint> run_sweep_impl(const Workload& workload,
                                       const SweepConfig& config,
                                       SweepShard shard, unsigned threads) {
  TCSA_REQUIRE(shard.count >= 1, "run_sweep: shard count must be >= 1");
  TCSA_REQUIRE(shard.index < shard.count, "run_sweep: shard index too large");
  const auto grid = sweep_point_list(workload, config);
  std::vector<std::pair<SlotCount, Method>> work;
  for (std::size_t i = shard.index; i < grid.size(); i += shard.count)
    work.push_back(grid[i]);
  std::vector<SweepPoint> results(work.size());
  parallel_for(work.size(), threads, [&](std::size_t i) {
    results[i] = measure_point(workload, config, work[i].first, work[i].second);
  });
  return results;
}

}  // namespace

std::vector<std::pair<SlotCount, Method>> sweep_point_list(
    const Workload& workload, const SweepConfig& config) {
  TCSA_REQUIRE(!config.methods.empty(), "run_sweep: no methods selected");
  TCSA_REQUIRE(config.step >= 1, "run_sweep: step must be >= 1");
  TCSA_REQUIRE(config.min_channels >= 1, "run_sweep: channels start at 1");
  const SlotCount last = config.max_channels > 0 ? config.max_channels
                                                 : min_channels(workload);
  TCSA_REQUIRE(config.min_channels <= last, "run_sweep: empty channel range");

  std::vector<std::pair<SlotCount, Method>> points;
  for (SlotCount channels = config.min_channels; channels <= last;
       channels += config.step) {
    for (const Method method : config.methods) {
      // SUSC only exists at/above the bound; skip it below.
      if (method == Method::kSusc && !channels_sufficient(workload, channels))
        continue;
      points.emplace_back(channels, method);
    }
  }
  return points;
}

std::vector<SweepPoint> run_sweep(const Workload& workload,
                                  const SweepConfig& config) {
  return run_sweep_impl(workload, config, SweepShard{}, 1);
}

std::vector<SweepPoint> run_sweep_parallel(const Workload& workload,
                                           const SweepConfig& config,
                                           unsigned threads) {
  return run_sweep_impl(workload, config, SweepShard{}, threads);
}

SweepReport run_sweep_with_metrics(const Workload& workload,
                                   const SweepConfig& config,
                                   unsigned threads) {
  return run_sweep_shard(workload, config, SweepShard{}, threads);
}

SweepReport run_sweep_shard(const Workload& workload,
                            const SweepConfig& config, SweepShard shard,
                            unsigned threads) {
  // Forcing the flag on (instead of requiring callers to pre-enable) keeps
  // the one-call contract: a report always carries a meaningful snapshot.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  SweepReport report;
  report.points = run_sweep_impl(workload, config, shard, threads);
  report.metrics = obs::snapshot().minus(before);
  obs::set_enabled(was_enabled);
  return report;
}

std::string sweep_config_digest(const Workload& workload,
                                const SweepConfig& config) {
  // Canonical serialization of everything that shapes the grid or the
  // per-point streams; hashed with FNV-1a 64 (stable across platforms).
  std::ostringstream canon;
  save_workload(canon, workload);
  canon << "|min=" << config.min_channels << "|max=" << config.max_channels
        << "|step=" << config.step << "|seed=" << config.sim.seed
        << "|req=" << config.sim.requests.count
        << "|pop=" << static_cast<int>(config.sim.requests.popularity)
        << "|theta=" << config.sim.requests.zipf_theta
        << "|arr=" << static_cast<int>(config.sim.requests.arrivals)
        << "|rate=" << config.sim.requests.poisson_rate << "|methods=";
  for (const Method method : config.methods)
    canon << method_name(method) << ',';

  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : canon.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a-%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace tcsa
