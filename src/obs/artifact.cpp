#include "obs/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json.hpp"
#include "util/contracts.hpp"

// Build provenance: the CMake configure step captures `git describe` into
// this definition; a tarball build falls back to "unknown".
#ifndef TCSA_GIT_DESCRIBE
#define TCSA_GIT_DESCRIBE "unknown"
#endif

namespace tcsa::obs {
namespace {

/// Fixed-width helper for report tables (3 significant decimals).
std::string format_fixed(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

}  // namespace

const char* build_git_describe() noexcept { return TCSA_GIT_DESCRIBE; }

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

// ----------------------------------------------------------------- report

std::string report_markdown(const MetricsSnapshot& metrics) {
  std::string out = "# TCSA run report\n";

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
