// artifact.hpp — the cross-process half of the observability layer.
//
// A process exports a metrics snapshot and a Chrome trace. This module
// defines the artifact model that keeps those exports readable, diffable
// and fusable after the process is gone:
//
//  * RunManifest — provenance written alongside every export: run id,
//    config digest, host/pid, the wall-clock instant of the process's trace
//    epoch (the clock-alignment anchor), and the build's git describe.
//    Schema: "tcsa-run-manifest/v2", documented in DESIGN.md §6.
//  * snapshot_from_json — the strict importer for MetricsSnapshot::to_json
//    output, whose histograms are sparse LogHistogram buckets plus count,
//    sum and exact extremes, so an imported snapshot keeps exact tails.
//    import(export(s)) reproduces s exactly (help strings are not part of
//    the export and come back empty; snapshots_equal ignores them).
//    Malformed documents throw std::invalid_argument, never crash.
//  * merge_chrome_traces — folds several processes' trace files (a server
//    and its clients) onto one timeline: pids are re-keyed by position
//    (each process wrote pid 1), and timestamps shift by the difference
//    between the process's manifest epoch and the earliest epoch, plus a
//    measured clock offset, so spans line up in absolute time.
//  * diff_snapshots — per-metric comparison with tolerances, the engine of
//    the CI counter-regression gate; counters_from_json_document also
//    understands merged google-benchmark documents (BENCH_micro.json) so
//    bench counters gate the same way.
//  * report_markdown — human summary: counters, histogram percentiles
//    (LogHistogram's nearest rank), and per-sweep-point deadline-miss rates
//    from the points artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tcsa::obs {

// ------------------------------------------------------------- manifests

/// Provenance for one process's artifacts. Every field lands in the
/// manifest JSON; `*_file` entries are paths relative to the manifest's own
/// directory (empty = that artifact was not written).
struct RunManifest {
  std::string run_id;            ///< --run-id, or minted from clock + pid
  std::string config_digest;     ///< fingerprint of the command's config
  std::string command;           ///< producing command, e.g. "sweep"
  std::string hostname;
  std::string git_describe;      ///< build provenance (TCSA_GIT_DESCRIBE)
  std::int64_t os_pid = 0;
  std::uint64_t wall_epoch_us = 0;  ///< wall clock of the trace epoch
  std::string metrics_file;
  std::string trace_file;
  std::string points_file;
};

/// Fills provenance from the running process: hostname, pid, the trace
/// epoch's wall-clock anchor, and the compiled-in git describe.
RunManifest make_manifest(const std::string& run_id,
                          const std::string& config_digest,
                          const std::string& command);

/// A manifest's config_digest: FNV-1a 64 over a canonical description of
/// the run's configuration, as "fnv1a-" plus 16 hex digits.
std::string fnv1a_digest(std::string_view canon);

/// The compiled-in TCSA_GIT_DESCRIBE string ("unknown" outside a build that
/// stamped it). The macro is a compile definition on this translation unit
/// only; everything else (tcsa_build_info labels, stat output) goes through
/// this accessor.
const char* build_git_describe() noexcept;

std::string manifest_to_json(const RunManifest& manifest);
/// Strict: missing/mistyped fields and unknown schema tags throw.
RunManifest manifest_from_json(const std::string& json);

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

// ----------------------------------------------------------- trace merge

/// One process's trace artifact paired with the manifest that anchors it.
struct ProcessTrace {
  RunManifest manifest;
  std::string trace_json;  ///< the process's write_chrome_trace document
  /// Measured clock correction added to every event timestamp on top of
  /// the wall-epoch shift. Cross-host (or cross-clock) processes align
  /// their wall epochs only as well as the two system clocks agree; a
  /// measured offset (obs::ClockOffsetEstimator over request acks) corrects
  /// the residual. 0 = trust the wall clocks.
  std::int64_t clock_offset_us = 0;
};

/// Merges process timelines into one Chrome trace_event document. Events
/// keep their names/tids/args; the trace at position i gets pid i + 1 (with
/// process_name metadata naming its command, host and OS pid) and ts shifts
/// onto the earliest process's axis via the manifest wall epochs plus each
/// trace's measured clock_offset_us (clamped at 0).
std::string merge_chrome_traces(const std::vector<ProcessTrace>& traces);

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

// ---------------------------------------------------------------- points

/// One sweep measurement as recorded in the points artifact (the obs layer
/// stores plain records; tcsactl converts from/to sim's SweepPoint).
struct SweepPointRecord {
  std::int64_t channels = 0;
  std::string method;
  double avg_delay = 0.0;
  double predicted_delay = 0.0;
  double miss_rate = 0.0;
  double p95_delay = 0.0;
  std::int64_t t_major = 0;
  std::int64_t window_overflows = 0;
};

std::string points_to_json(const std::vector<SweepPointRecord>& points);
std::vector<SweepPointRecord> points_from_json(const std::string& json);

// ---------------------------------------------------------------- report

/// Markdown run summary: manifest provenance (when `manifest` is given),
/// the counter table, histogram p50/p90/p99, and the per-point table with
/// deadline-miss rates (when points are given).
std::string report_markdown(const MetricsSnapshot& metrics,
                            const RunManifest* manifest,
                            const std::vector<SweepPointRecord>& points);

}  // namespace tcsa::obs
