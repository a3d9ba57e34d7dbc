#include "obs/artifact.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

// Build provenance: the CMake configure step captures `git describe` into
// this definition; a tarball build falls back to "unknown".
#ifndef TCSA_GIT_DESCRIBE
#define TCSA_GIT_DESCRIBE "unknown"
#endif

namespace tcsa::obs {
namespace {

constexpr const char* kManifestSchema = "tcsa-run-manifest/v2";

/// Fixed-width helper for report tables (3 significant decimals).
std::string format_fixed(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

void append_kv(std::string& out, const char* key, const std::string& value,
               bool last = false) {
  out += "  \"";
  out += key;
  out += "\": \"";
  out += json_escape(value);
  out += last ? "\"\n" : "\",\n";
}

void append_kv_int(std::string& out, const char* key, std::int64_t value,
                   bool last = false) {
  out += "  \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  out += last ? "\n" : ",\n";
}

}  // namespace

// --------------------------------------------------------------- manifest

std::string fnv1a_digest(std::string_view canon) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (const char c : canon) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a-%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

const char* build_git_describe() noexcept { return TCSA_GIT_DESCRIBE; }

RunManifest make_manifest(const std::string& run_id,
                          const std::string& config_digest,
                          const std::string& command) {
  RunManifest manifest;
  manifest.run_id = run_id;
  manifest.config_digest = config_digest;
  manifest.command = command;
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0) manifest.hostname = host;
  manifest.git_describe = TCSA_GIT_DESCRIBE;
  manifest.os_pid = static_cast<std::int64_t>(::getpid());
  manifest.wall_epoch_us = trace_epoch_wall_us();
  return manifest;
}

std::string manifest_to_json(const RunManifest& manifest) {
  std::string out = "{\n";
  append_kv(out, "schema", kManifestSchema);
  append_kv(out, "run_id", manifest.run_id);
  append_kv(out, "config_digest", manifest.config_digest);
  append_kv(out, "command", manifest.command);
  append_kv(out, "hostname", manifest.hostname);
  append_kv(out, "git_describe", manifest.git_describe);
  append_kv_int(out, "os_pid", manifest.os_pid);
  append_kv_int(out, "wall_epoch_us",
                static_cast<std::int64_t>(manifest.wall_epoch_us));
  append_kv(out, "metrics_file", manifest.metrics_file);
  append_kv(out, "trace_file", manifest.trace_file);
  append_kv(out, "points_file", manifest.points_file, /*last=*/true);
  out += "}\n";
  return out;
}

RunManifest manifest_from_json(const std::string& json) {
  const JsonValue doc = json_parse(json).expect_object("manifest");
  TCSA_REQUIRE(doc.at("schema").expect_string("schema") == kManifestSchema,
               "manifest: unknown schema tag");
  RunManifest manifest;
  manifest.run_id = doc.at("run_id").expect_string("run_id");
  manifest.config_digest =
      doc.at("config_digest").expect_string("config_digest");
  manifest.command = doc.at("command").expect_string("command");
  manifest.hostname = doc.at("hostname").expect_string("hostname");
  manifest.git_describe =
      doc.at("git_describe").expect_string("git_describe");
  manifest.os_pid = doc.at("os_pid").expect_int("os_pid");
  manifest.wall_epoch_us = doc.at("wall_epoch_us").expect_uint("wall_epoch_us");
  manifest.metrics_file = doc.at("metrics_file").expect_string("metrics_file");
  manifest.trace_file = doc.at("trace_file").expect_string("trace_file");
  manifest.points_file = doc.at("points_file").expect_string("points_file");
  return manifest;
}

// -------------------------------------------------------- snapshot import

MetricsSnapshot snapshot_from_json(const std::string& json) {
  const JsonValue doc =
      json_parse(json, JsonPairs::kPacked).expect_object("snapshot");
  // Exactly the exporter's three sections: an unknown section means the
  // document is not a snapshot (or a future schema this build predates).
  TCSA_REQUIRE(doc.object.size() == 3,
               "snapshot: expected exactly counters/gauges/histograms");
  MetricsSnapshot snap;
  for (const auto& [name, value] :
       doc.at("counters").expect_object("counters").object) {
    CounterSnapshot c;
    c.name = name;
    c.value = value.expect_uint("counter " + name);
    snap.counters.push_back(std::move(c));
  }
  for (const auto& [name, value] :
       doc.at("gauges").expect_object("gauges").object) {
    GaugeSnapshot g;
    // The exporter keys a labeled gauge as name{labels}; split the series
    // key back apart so lookups by bare name (gauge("tcsa_build_info"))
    // work on an imported snapshot exactly as they do on a live one.
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos && name.back() == '}') {
      g.name = name.substr(0, brace);
      g.labels = name.substr(brace + 1, name.size() - brace - 2);
    } else {
      g.name = name;
    }
    g.value = value.expect_number("gauge " + name);
    snap.gauges.push_back(std::move(g));
  }
  for (const auto& [name, value] :
       doc.at("histograms").expect_object("histograms").object) {
    const JsonValue& obj = value.expect_object("histogram " + name);
    HistogramSnapshot h;
    h.name = name;
    h.sum = obj.at("sum").expect_number(name + ".sum");
    const std::uint64_t count = obj.at("count").expect_uint(name + ".count");
    const double min = obj.at("min").expect_number(name + ".min");
    const double max = obj.at("max").expect_number(name + ".max");
    TCSA_REQUIRE(min <= max, "snapshot: histogram min above max");
    std::vector<LogHistogram::Bucket> buckets;
    std::uint64_t total = 0;
    const std::string what = name + ".buckets";
    for (const auto& [index, n] : obj.at("buckets").expect_uint_pairs(what)) {
      TCSA_REQUIRE(index < LogHistogram::kBuckets,
                   "snapshot: bucket index out of range");
      TCSA_REQUIRE(buckets.empty() || index > buckets.back().index,
                   "snapshot: bucket indices must strictly ascend");
      TCSA_REQUIRE(n > 0, "snapshot: empty buckets are not exported");
      TCSA_REQUIRE(n <= count - total,
                   "snapshot: bucket counts disagree with count");
      total += n;
      buckets.push_back({static_cast<std::size_t>(index), n});
    }
    TCSA_REQUIRE(total == count,
                 "snapshot: bucket counts disagree with count");
    // Quantiles scan up from min's bucket, so the extremes must bracket.
    TCSA_REQUIRE(buckets.empty() ||
                     (LogHistogram::bucket_index(min) <= buckets.front().index &&
                      LogHistogram::bucket_index(max) >= buckets.back().index),
                 "snapshot: min/max outside the non-empty buckets");
    h.values.merge_buckets(buckets, min, max);
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

bool snapshots_equal(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  if (a.counters.size() != b.counters.size() ||
      a.gauges.size() != b.gauges.size() ||
      a.histograms.size() != b.histograms.size())
    return false;
  std::map<std::string, std::uint64_t> counters;
  for (const CounterSnapshot& c : a.counters) counters[c.name] = c.value;
  for (const CounterSnapshot& c : b.counters) {
    const auto it = counters.find(c.name);
    if (it == counters.end() || it->second != c.value) return false;
  }
  // Labeled series share a name, so a gauge's identity is name + labels.
  std::map<std::pair<std::string, std::string>, double> gauges;
  for (const GaugeSnapshot& g : a.gauges) gauges[{g.name, g.labels}] = g.value;
  for (const GaugeSnapshot& g : b.gauges) {
    const auto it = gauges.find({g.name, g.labels});
    if (it == gauges.end() || it->second != g.value) return false;
  }
  std::map<std::string, const HistogramSnapshot*> hists;
  for (const HistogramSnapshot& h : a.histograms) hists[h.name] = &h;
  for (const HistogramSnapshot& h : b.histograms) {
    const auto it = hists.find(h.name);
    if (it == hists.end()) return false;
    const HistogramSnapshot& mine = *it->second;
    if (!(mine.values == h.values) || mine.sum != h.sum) return false;
  }
  return true;
}

// ------------------------------------------------------------ trace merge

std::string merge_chrome_traces(const std::vector<ProcessTrace>& traces) {
  TCSA_REQUIRE(!traces.empty(), "merge_chrome_traces: no traces");
  std::uint64_t base_wall = traces.front().manifest.wall_epoch_us;
  for (const ProcessTrace& trace : traces)
    base_wall = std::min(base_wall, trace.manifest.wall_epoch_us);

  struct MergedEvent {
    std::uint64_t ts = 0;
    std::string json;
  };
  std::vector<MergedEvent> events;
  std::string metadata;
  for (std::size_t position = 0; position < traces.size(); ++position) {
    const ProcessTrace& trace = traces[position];
    const RunManifest& m = trace.manifest;
    // Wall-epoch shift plus the trace's measured clock correction. Signed:
    // a process whose clock runs ahead corrects backwards, clamped at the
    // merged origin so the document stays a valid Chrome trace.
    const std::int64_t shift =
        static_cast<std::int64_t>(m.wall_epoch_us - base_wall) +
        trace.clock_offset_us;
    // Every process wrote pid 1: re-key by position, collision-free.
    const std::int64_t pid = static_cast<std::int64_t>(position) + 1;

    // Perfetto/chrome://tracing shows this as the process title.
    metadata += "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
                std::to_string(pid) +
                ", \"tid\": 0, \"args\": {\"name\": \"" +
                json_escape(m.command) + " · " + json_escape(m.hostname) +
                " pid " + std::to_string(m.os_pid) + "\"}},\n";

    const JsonValue doc =
        json_parse(trace.trace_json).expect_object("trace document");
    for (const JsonValue& raw :
         doc.at("traceEvents").expect_array("traceEvents").array) {
      JsonValue event = raw.expect_object("trace event");
      const std::int64_t shifted =
          static_cast<std::int64_t>(event.at("ts").expect_uint("event ts")) +
          shift;
      const std::uint64_t ts =
          shifted < 0 ? 0 : static_cast<std::uint64_t>(shifted);
      bool saw_pid = false;
      for (auto& [key, member] : event.object) {
        if (key == "ts") {
          member.is_uint = true;
          member.uint_value = ts;
          member.number = static_cast<double>(ts);
        } else if (key == "pid") {
          member.is_uint = true;
          member.uint_value = static_cast<std::uint64_t>(pid);
          member.number = static_cast<double>(pid);
          saw_pid = true;
        }
      }
      TCSA_REQUIRE(saw_pid, "merge_chrome_traces: event without pid");
      events.push_back({ts, "  " + json_serialize(event)});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.ts < b.ts;
                   });

  std::string out = "{\"traceEvents\": [\n";
  out += metadata;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i].json;
    out += i + 1 == events.size() ? "\n" : ",\n";
  }
  if (events.empty() && !metadata.empty()) {
    // Trim the trailing ",\n" the metadata loop appended.
    out.erase(out.size() - 2);
    out += "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

// ------------------------------------------------------------------- diff

namespace {

/// Counters plus histogram count/sum series, flattened to comparable
/// doubles. Gauges are excluded by design (point-in-time values).
std::map<std::string, double> comparable_series(const MetricsSnapshot& snap) {
  std::map<std::string, double> series;
  for (const CounterSnapshot& c : snap.counters)
    series[c.name] = static_cast<double>(c.value);
  for (const HistogramSnapshot& h : snap.histograms) {
    series[h.name + "_count"] = static_cast<double>(h.values.count());
    series[h.name + "_sum"] = h.sum;
  }
  return series;
}

}  // namespace

DiffResult diff_snapshots(const MetricsSnapshot& base,
                          const MetricsSnapshot& current,
                          const DiffOptions& options) {
  const std::map<std::string, double> before = comparable_series(base);
  const std::map<std::string, double> after = comparable_series(current);
  DiffResult result;
  for (const auto& [name, value] : before) {
    DiffEntry entry;
    entry.name = name;
    entry.base = value;
    const auto it = after.find(name);
    if (it == after.end()) {
      entry.current_missing = true;
      ++result.regressions;  // a vanished metric can hide a regression
    } else {
      entry.current = it->second;
      const double tolerance =
          options.abs_tol + options.rel_tol * std::abs(entry.base);
      if (std::abs(entry.current - entry.base) > tolerance) {
        entry.out_of_tolerance = true;
        ++result.regressions;
      }
    }
    result.entries.push_back(std::move(entry));
  }
  for (const auto& [name, value] : after) {
    if (before.find(name) != before.end()) continue;
    DiffEntry entry;  // new metric: reported, never a failure
    entry.name = name;
    entry.current = value;
    entry.base_missing = true;
    result.entries.push_back(std::move(entry));
  }
  return result;
}

std::string DiffResult::to_markdown(bool verbose) const {
  std::string out =
      "| metric | base | current | delta | status |\n"
      "|---|---:|---:|---:|---|\n";
  for (const DiffEntry& e : entries) {
    const bool changed = e.base_missing || e.current_missing ||
                         e.current != e.base;
    if (!verbose && !changed && !e.out_of_tolerance) continue;
    std::string status = "ok";
    if (e.current_missing) status = "REMOVED";
    else if (e.base_missing) status = "added";
    else if (e.out_of_tolerance) status = "REGRESSION";
    else if (changed) status = "within tolerance";
    out += "| " + e.name + " | " +
           (e.base_missing ? std::string("—") : json_number(e.base)) +
           " | " +
           (e.current_missing ? std::string("—") : json_number(e.current)) +
           " | " +
           (e.base_missing || e.current_missing
                ? std::string("—")
                : json_number(e.current - e.base)) +
           " | " + status + " |\n";
  }
  return out;
}

MetricsSnapshot counters_from_json_document(const std::string& json) {
  const JsonValue doc = json_parse(json).expect_object("document");
  if (doc.find("counters") != nullptr) return snapshot_from_json(json);
  const JsonValue* suites = doc.find("suites");
  TCSA_REQUIRE(suites != nullptr,
               "diff: document is neither a snapshot nor a bench report");
  MetricsSnapshot snap;
  for (const auto& [suite_name, suite] :
       suites->expect_object("suites").object) {
    for (const JsonValue& bench :
         suite.at("benchmarks").expect_array("benchmarks").array) {
      const JsonValue& obj = bench.expect_object("benchmark");
      const std::string& name = obj.at("name").expect_string("name");
      for (const auto& [key, value] : obj.object) {
        if (key.size() < 6 || key.compare(key.size() - 6, 6, "_total") != 0)
          continue;
        if (!value.is(JsonValue::Kind::kNumber)) continue;
        CounterSnapshot c;
        c.name = suite_name + "/" + name + "/" + key;
        c.value = value.is_uint
                      ? value.uint_value
                      : static_cast<std::uint64_t>(value.number);
        snap.counters.push_back(std::move(c));
      }
    }
  }
  return snap;
}

// ----------------------------------------------------------------- points

std::string points_to_json(const std::vector<SweepPointRecord>& points) {
  std::string out = "{\n  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPointRecord& p = points[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"channels\": " + std::to_string(p.channels) +
           ", \"method\": \"" + json_escape(p.method) +
           "\", \"avg_delay\": " + json_number(p.avg_delay) +
           ", \"predicted_delay\": " + json_number(p.predicted_delay) +
           ", \"miss_rate\": " + json_number(p.miss_rate) +
           ", \"p95_delay\": " + json_number(p.p95_delay) +
           ", \"t_major\": " + std::to_string(p.t_major) +
           ", \"window_overflows\": " + std::to_string(p.window_overflows) +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::vector<SweepPointRecord> points_from_json(const std::string& json) {
  const JsonValue doc = json_parse(json).expect_object("points document");
  std::vector<SweepPointRecord> points;
  for (const JsonValue& raw : doc.at("points").expect_array("points").array) {
    const JsonValue& obj = raw.expect_object("point");
    SweepPointRecord p;
    p.channels = obj.at("channels").expect_int("channels");
    p.method = obj.at("method").expect_string("method");
    p.avg_delay = obj.at("avg_delay").expect_number("avg_delay");
    p.predicted_delay =
        obj.at("predicted_delay").expect_number("predicted_delay");
    p.miss_rate = obj.at("miss_rate").expect_number("miss_rate");
    p.p95_delay = obj.at("p95_delay").expect_number("p95_delay");
    p.t_major = obj.at("t_major").expect_int("t_major");
    p.window_overflows =
        obj.at("window_overflows").expect_int("window_overflows");
    points.push_back(std::move(p));
  }
  return points;
}

// ----------------------------------------------------------------- report

std::string report_markdown(const MetricsSnapshot& metrics,
                            const RunManifest* manifest,
                            const std::vector<SweepPointRecord>& points) {
  std::string out = "# TCSA run report\n";

  if (manifest != nullptr)
    out += "\nRun `" + manifest->run_id + "` — command `" + manifest->command +
           "`, config digest `" + manifest->config_digest + "`, build `" +
           manifest->git_describe + "`, host " + manifest->hostname +
           " pid " + std::to_string(manifest->os_pid) +
           ", trace epoch " + std::to_string(manifest->wall_epoch_us) +
           " µs (wall).\n";

  const std::uint64_t requests =
      metrics.counter_value("tcsa_sim_requests_total");
  const std::uint64_t misses =
      metrics.counter_value("tcsa_sim_deadline_misses_total");
  if (requests > 0)
    out += "\nOverall deadline-miss rate: **" +
           format_fixed(100.0 * static_cast<double>(misses) /
                        static_cast<double>(requests)) +
           "%** (" + std::to_string(misses) + " of " +
           std::to_string(requests) + " simulated requests).\n";

  if (!points.empty()) {
    out += "\n## Sweep points\n\n";
    out += "| channels | method | AvgD | predicted | miss % | p95 |\n";
    out += "|---:|---|---:|---:|---:|---:|\n";
    for (const SweepPointRecord& p : points)
      out += "| " + std::to_string(p.channels) + " | " + p.method + " | " +
             format_fixed(p.avg_delay) + " | " +
             format_fixed(p.predicted_delay) + " | " +
             format_fixed(100.0 * p.miss_rate) + " | " +
             format_fixed(p.p95_delay) + " |\n";
  }

  if (!metrics.counters.empty()) {
    out += "\n## Counters\n\n| counter | value |\n|---|---:|\n";
    for (const CounterSnapshot& c : metrics.counters)
      out += "| " + c.name + " | " + std::to_string(c.value) + " |\n";
  }

  if (!metrics.histograms.empty()) {
    out += "\n## Histograms\n\n";
    out += "| histogram | count | mean | p50 | p90 | p99 |\n";
    out += "|---|---:|---:|---:|---:|---:|\n";
    for (const HistogramSnapshot& h : metrics.histograms) {
      const std::uint64_t total = h.values.count();
      const double mean =
          total == 0 ? 0.0 : h.sum / static_cast<double>(total);
      out += "| " + h.name + " | " + std::to_string(total) + " | " +
             format_fixed(mean);
      for (const double q : {0.50, 0.90, 0.99})
        out += " | " + format_fixed(h.values.quantile(q));
      out += " |\n";
    }
  }
  return out;
}

}  // namespace tcsa::obs
