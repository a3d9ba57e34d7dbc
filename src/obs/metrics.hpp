// metrics.hpp — process-wide metrics registry (counters, gauges, fixed-bucket
// histograms) with a lock-free hot path.
//
// Design: metric *definitions* live in one global registry; metric *values*
// live in per-thread shards of relaxed atomics. Recording touches only the
// calling thread's shard (no contended cache line, no lock), and a scrape
// merges every live shard plus the folded remains of exited threads — the
// same Chan-style "accumulate locally, merge associatively" idiom OnlineStats
// uses for parallel statistics. Shards are folded into a retired accumulator
// when their thread exits, so memory stays bounded no matter how many worker
// threads the pool spawns over a process lifetime.
//
// Cost model (the scheduling kernels must not regress): instrumentation is
// always compiled in and switched at runtime, cheap enough to leave on.
//  * runtime-disabled (the default): one relaxed atomic bool load and a
//    predicted-not-taken branch per site;
//  * enabled: thread-local shard lookup + relaxed fetch_add.
//
// Registration is idempotent by name and typically hangs off a function-local
// static at the instrumentation site, so it runs once per process.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tcsa::obs {

/// Runtime switch for metric recording. Off by default so un-instrumented
/// callers pay only the load+branch; scraping works regardless.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Dense handle into the registry; obtained once via register_*.
using MetricId = std::uint32_t;

/// Registers (or looks up — registration is idempotent by name) a
/// monotonically increasing counter. Names follow Prometheus conventions:
/// snake_case with a `tcsa_` prefix and a `_total` suffix for counters.
MetricId register_counter(const std::string& name, const std::string& help);

/// Registers a gauge: a single last-write-wins double (process-global, not
/// sharded — gauges are set rarely compared to counter bumps).
MetricId register_gauge(const std::string& name, const std::string& help);

/// Registers a gauge carrying a fixed Prometheus label set, e.g.
/// `git_describe="v1.2",loops="4"` (no surrounding braces — assemble pairs
/// with format_label). Gauges with the same name but different labels are
/// distinct series; the exposition emits `name{labels} value` while HELP
/// and TYPE lines keep the bare name. Built for info-style metrics
/// (tcsa_build_info) whose value is constant 1 and whose payload is the
/// labels.
MetricId register_gauge(const std::string& name, const std::string& help,
                        const std::string& labels);

/// One `key="value"` Prometheus label pair with the exposition-format value
/// escapes applied (backslash, double quote, newline).
std::string format_label(const std::string& key, const std::string& value);

/// Registers a histogram with explicit ascending upper bounds; an implicit
/// +Inf bucket catches the remainder. Bounds are fixed at registration —
/// re-registering the same name with different bounds throws.
MetricId register_histogram(const std::string& name, const std::string& help,
                            std::vector<double> upper_bounds);

/// Hot-path recorders. All are no-ops while disabled; the *_always variants
/// record even when disabled and exist for rare WARN-class events that must
/// stay countable (placement-window overflow, OPT budget bail).
void counter_add(MetricId id, std::uint64_t n = 1) noexcept;
void counter_add_always(MetricId id, std::uint64_t n = 1) noexcept;
void gauge_set(MetricId id, double value) noexcept;
void gauge_set_always(MetricId id, double value) noexcept;
void histogram_observe(MetricId id, double value) noexcept;

/// Point-in-time aggregate of every registered metric (all shards merged).
struct CounterSnapshot {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  std::string labels;  ///< fixed label pairs, no braces; empty = unlabeled
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<double> upper_bounds;   ///< ascending; +Inf bucket is implicit
  std::vector<std::uint64_t> counts;  ///< upper_bounds.size() + 1 entries
  double sum = 0.0;
  std::uint64_t total() const noexcept;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Sums counters and histogram buckets by name; gauges take the other
  /// side's value (last writer wins, matching gauge semantics). Metrics
  /// present on only one side are kept. Associative, like OnlineStats::merge.
  void merge(const MetricsSnapshot& other);

  /// Counter/histogram delta against an earlier snapshot of the same
  /// process (gauges keep their current value). Used by sweeps and benches
  /// to attribute activity to one run.
  MetricsSnapshot minus(const MetricsSnapshot& base) const;

  /// Value of a counter by name; 0 when absent (convenient in tests).
  std::uint64_t counter_value(const std::string& name) const noexcept;
  const HistogramSnapshot* histogram(const std::string& name) const noexcept;
  /// First gauge with this exact name (any labels); nullptr when absent.
  const GaugeSnapshot* gauge(const std::string& name) const noexcept;
  /// Value of a gauge by name; 0.0 when absent.
  double gauge_value(const std::string& name) const noexcept;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}
  std::string to_json() const;
  /// Prometheus text exposition format (# HELP / # TYPE / samples).
  std::string to_prometheus() const;
};

/// Merges every shard (live and retired) into one snapshot.
MetricsSnapshot snapshot();

/// Zeroes all values (definitions survive). Callers must be quiescent;
/// intended for tests and the start of instrumented runs.
void reset_metrics();

}  // namespace tcsa::obs
