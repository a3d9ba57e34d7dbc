// artifact.hpp — the cross-process half of the observability layer.
//
// A process exports a metrics snapshot and a Chrome trace (the trace
// describes itself and is merged by obs/trace.hpp). This module keeps the
// metrics export readable and diffable after the process is gone:
//
//  * snapshot_from_json — the strict importer for MetricsSnapshot::to_json
//    output, whose histograms are sparse LogHistogram buckets plus count,
//    sum and exact extremes, so an imported snapshot keeps exact tails.
//    import(export(s)) reproduces s exactly (help strings are not part of
//    the export and come back empty; snapshots_equal ignores them).
//    Malformed documents throw std::invalid_argument, never crash.
//  * diff_snapshots — per-metric comparison with tolerances, the engine of
//    the CI counter-regression gate; counters_from_json_document also
//    understands merged google-benchmark documents (BENCH_micro.json) so
//    bench counters gate the same way.
//  * report_markdown — human summary: the simulated deadline-miss rate,
//    counters and histogram percentiles (LogHistogram's nearest rank).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tcsa::obs {

/// The compiled-in TCSA_GIT_DESCRIBE string ("unknown" outside a build that
/// stamped it). The macro is a compile definition on this translation unit
/// only; everything else (tcsa_build_info labels, stat output) goes through
/// this accessor.
const char* build_git_describe() noexcept;

// ------------------------------------------------------- snapshot import

/// Parses MetricsSnapshot::to_json output back into a snapshot. Strict:
/// the exact exporter grammar is required (sections present, counters
/// non-negative integers, bucket indices in range and strictly ascending,
/// counts positive and summing to "count", min <= max bracketing the
/// buckets); anything else throws std::invalid_argument.
MetricsSnapshot snapshot_from_json(const std::string& json);

/// Semantic equality, order-insensitive by metric name (gauges: name and
/// labels), ignoring help text (registry metadata, not snapshot identity).
/// Counters, gauges and histograms (sums included) compare exactly.
bool snapshots_equal(const MetricsSnapshot& a, const MetricsSnapshot& b);

// ------------------------------------------------------------------ diff

struct DiffOptions {
  double rel_tol = 0.0;  ///< allowed |delta| as a fraction of the base value
  double abs_tol = 0.0;  ///< allowed absolute |delta|
};

/// One compared value. Histograms contribute two entries per metric
/// (`name` + "_count" and "_sum"); gauges are ignored — they are
/// point-in-time values with no cross-run comparison semantics.
struct DiffEntry {
  std::string name;
  double base = 0.0;
  double current = 0.0;
  bool base_missing = false;     ///< metric appeared (advisory)
  bool current_missing = false;  ///< metric disappeared (regression)
  bool out_of_tolerance = false;
};

struct DiffResult {
  std::vector<DiffEntry> entries;  ///< every compared value, name order
  std::size_t regressions = 0;     ///< out-of-tolerance or disappeared
  bool clean() const noexcept { return regressions == 0; }
  /// Markdown table of the non-identical entries (all entries if verbose).
  std::string to_markdown(bool verbose = false) const;
};

/// |current - base| > abs_tol + rel_tol * |base| flags a regression, as
/// does a metric disappearing; new metrics are reported but never fail.
DiffResult diff_snapshots(const MetricsSnapshot& base,
                          const MetricsSnapshot& current,
                          const DiffOptions& options);

/// Loads the counters of a JSON document into a snapshot for diffing.
/// Accepts either a MetricsSnapshot export or a merged google-benchmark
/// document ({"suites": ...}), from which every numeric per-benchmark
/// counter ending in "_total" becomes "<suite>/<benchmark>/<counter>" —
/// those are registry deltas of deterministic kernels, so they gate
/// reproducibly while timing fields are ignored.
MetricsSnapshot counters_from_json_document(const std::string& json);

// ---------------------------------------------------------------- report

/// Markdown run summary: the simulated deadline-miss rate (when the
/// snapshot counted simulated requests), the counter table and histogram
/// p50/p90/p99.
std::string report_markdown(const MetricsSnapshot& metrics);

}  // namespace tcsa::obs
