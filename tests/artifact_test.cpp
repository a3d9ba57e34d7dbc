// artifact_test.cpp — the cross-process artifact model: JSON parsing,
// snapshot import round-trips, snapshot deltas, self-describing traces and
// their merge, and diffing.
#include <cmath>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace tcsa;

namespace {

// ------------------------------------------------------------ JSON parser

TEST(Json, ParsesScalarsExactly) {
  EXPECT_EQ(obs::json_parse("null").kind, obs::JsonValue::Kind::kNull);
  EXPECT_TRUE(obs::json_parse("true").boolean);
  EXPECT_FALSE(obs::json_parse("false").boolean);
  EXPECT_DOUBLE_EQ(obs::json_parse("-2.5e2").number, -250.0);
  EXPECT_EQ(obs::json_parse("\"a\\u00e9b\"").string, "a\xc3\xa9"
                                                     "b");
}

TEST(Json, PreservesLargeCountersExactly) {
  // 2^63 + 3 is not representable as a double; the importer must keep the
  // exact integer so counter round-trips never lose precision.
  const std::uint64_t big = (1ULL << 63) + 3;
  const obs::JsonValue v = obs::json_parse("9223372036854775811");
  ASSERT_TRUE(v.is_uint);
  EXPECT_EQ(v.uint_value, big);
  EXPECT_EQ(obs::json_serialize(v), "9223372036854775811");
}

TEST(Json, ParsesNestedDocuments) {
  const obs::JsonValue v =
      obs::json_parse(R"({"a": [1, {"b": "x"}, null], "c": {}})");
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  const obs::JsonValue& a = v.at("a");
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_EQ(a.array[1].at("b").string, "x");
  EXPECT_EQ(v.at("c").object.size(), 0u);
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",          "{",        "[1,",     "{\"a\":}",   "tru",
      "\"unterminated", "01",  "1.2.3",   "{\"a\" 1}",  "[1 2]",
      "\"\\q\"",   "nan",      "+1",      "{\"a\":1,}", "[]extra",
  };
  for (const char* text : bad)
    EXPECT_THROW(obs::json_parse(text), std::invalid_argument) << text;
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(obs::json_parse(deep), std::invalid_argument);
}

TEST(Json, PacksUintPairArraysOnRequest) {
  const std::string text =
      R"({"b": [[1, 2], [ 3 ,18446744073709551615 ]], "e": [],)"
      R"( "mixed": [[1, 2], [3, 4.5], [5, 6]], "short": [[1, 2], [3]],)"
      R"( "big": [[18446744073709551616, 1]], "flat": [1, 2]})";
  const obs::JsonValue nodes = obs::json_parse(text);
  const obs::JsonValue packed = obs::json_parse(text, obs::JsonPairs::kPacked);
  // Packed or not, the document is the same one.
  EXPECT_EQ(obs::json_serialize(packed), obs::json_serialize(nodes));

  const obs::JsonValue& b = packed.at("b");
  EXPECT_TRUE(b.array.empty());
  ASSERT_EQ(b.uint_pairs.size(), 2u);
  EXPECT_EQ(b.uint_pairs[1][0], 3u);
  EXPECT_EQ(b.uint_pairs[1][1], UINT64_MAX);
  EXPECT_EQ(b.expect_uint_pairs("b").size(), 2u);
  EXPECT_TRUE(packed.at("e").expect_uint_pairs("e").empty());
  // One element that is not a plain pair keeps the whole array as nodes.
  for (const char* key : {"mixed", "short", "big", "flat"}) {
    const obs::JsonValue& v = packed.at(key);
    EXPECT_TRUE(v.uint_pairs.empty()) << key;
    EXPECT_EQ(v.array.size(), nodes.at(key).array.size()) << key;
    EXPECT_THROW(v.expect_uint_pairs(key), std::invalid_argument) << key;
  }
  EXPECT_TRUE(nodes.at("b").uint_pairs.empty());
  EXPECT_EQ(packed.at("mixed").array[2].array[1].uint_value, 6u);
}

TEST(Json, PackedParsingRejectsWhatNodesReject) {
  const char* bad[] = {
      "[[1,2]",  "[[1,2],]", "[[01,2]]", "[[1,2]]x", "[[1,-]]",
      "[[1,2],", "[[1 2]]",  "[[1,]]",   "[[1,2,]]", "[[1,2],[3,4]",
  };
  for (const char* text : bad) {
    EXPECT_THROW(obs::json_parse(text), std::invalid_argument) << text;
    EXPECT_THROW(obs::json_parse(text, obs::JsonPairs::kPacked),
                 std::invalid_argument)
        << text;
  }
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(obs::json_parse(deep, obs::JsonPairs::kPacked),
               std::invalid_argument);
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
}

// ----------------------------------------------- snapshot import/export

/// A randomized snapshot: a handful of counters, gauges and histograms.
/// Histograms record heavy-tailed, mixed-sign, fractional samples, or none.
/// `name_salt` keeps two generations disjoint.
obs::MetricsSnapshot random_snapshot(Rng& rng, const std::string& name_salt) {
  obs::MetricsSnapshot s;
  const int n_counters = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < n_counters; ++i) {
    obs::CounterSnapshot c;
    c.name = "tcsa_" + name_salt + "_c" + std::to_string(i) + "_total";
    c.value = rng();  // full 64-bit range: exercises the exact-u64 path
    s.counters.push_back(c);
  }
  const int n_gauges = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n_gauges; ++i) {
    obs::GaugeSnapshot g;
    g.name = "tcsa_" + name_salt + "_g" + std::to_string(i);
    g.value = rng.uniform_real(-1e6, 1e6);
    s.gauges.push_back(g);
  }
  const int n_hists = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n_hists; ++i) {
    obs::HistogramSnapshot h;
    h.name = "tcsa_" + name_salt + "_h" + std::to_string(i);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    for (std::size_t k = 0; k < n; ++k) {
      const double magnitude = std::exp(rng.uniform_real(-2.0, 14.0));
      const double x = rng.bernoulli(0.2) ? -magnitude : magnitude;
      h.values.record(x);
      h.sum += x;
    }
    s.histograms.push_back(std::move(h));
  }
  return s;
}

TEST(SnapshotImport, RoundTripIsIdentityFuzzed) {
  Rng rng(20260805);
  for (int trial = 0; trial < 200; ++trial) {
    const obs::MetricsSnapshot s = random_snapshot(rng, "rt");
    const obs::MetricsSnapshot back = obs::snapshot_from_json(s.to_json());
    EXPECT_TRUE(obs::snapshots_equal(s, back)) << "trial " << trial;
    // Double export must be byte-stable, not just value-stable.
    EXPECT_EQ(back.to_json(), obs::snapshot_from_json(back.to_json()).to_json());
  }
}

TEST(SnapshotImport, ImportsLiveRegistryExport) {
  const obs::MetricsSnapshot live = obs::snapshot();
  const obs::MetricsSnapshot back = obs::snapshot_from_json(live.to_json());
  EXPECT_TRUE(obs::snapshots_equal(live, back));
}

TEST(SnapshotImport, RejectsMalformedSnapshots) {
  const auto hist = [](const std::string& body) {
    return R"({"counters":{},"gauges":{},"histograms":{"h":)" + body + "}}";
  };
  const std::string bad[] = {
      "{}",                                   // missing sections
      "{\"counters\":{},\"gauges\":{}}",      // missing histograms
      "{\"counters\":[],\"gauges\":{},\"histograms\":{}}",  // wrong type
      "{\"counters\":{\"x\":-1},\"gauges\":{},\"histograms\":{}}",  // negative
      "{\"counters\":{\"x\":1.5},\"gauges\":{},\"histograms\":{}}",  // fraction
      // bucket index past LogHistogram::kBuckets (5504):
      hist(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[5504,1]]})"),
      // indices not strictly ascending (descending, then repeated):
      hist(R"({"count":2,"sum":3,"min":1,"max":2,"buckets":[[2754,1],[2753,1]]})"),
      hist(R"({"count":2,"sum":2,"min":1,"max":1,"buckets":[[2753,1],[2753,1]]})"),
      // a zero count:
      hist(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[2753,1],[2754,0]]})"),
      // counts that do not sum to count:
      hist(R"({"count":5,"sum":1,"min":1,"max":1,"buckets":[[2753,1]]})"),
      hist(R"({"count":1,"sum":3,"min":1,"max":2,"buckets":[[2753,1],[2754,1]]})"),
      // min above max:
      hist(R"({"count":2,"sum":3,"min":2,"max":1,"buckets":[[2753,1],[2754,1]]})"),
      // extremes that do not bracket the buckets (min's bucket is 2754):
      hist(R"({"count":1,"sum":1,"min":2,"max":2,"buckets":[[2753,1]]})"),
      // the explicit-bounds grammar this importer replaced:
      hist(R"({"sum":1,"count":1,"buckets":[{"le":5,"count":1},
              {"le":"+Inf","count":0}]})"),
      // a bucket that is not an [index, count] pair:
      hist(R"({"count":1,"sum":1,"min":1,"max":1,"buckets":[[2753,1,0]]})"),
  };
  for (const std::string& text : bad)
    EXPECT_THROW(obs::snapshot_from_json(text), std::invalid_argument) << text;
}

TEST(SnapshotImport, RejectsMalformedBucketPairs) {
  const auto buckets = [](const std::string& pairs) {
    return R"({"counters":{},"gauges":{},"histograms":{"h":)"
           R"({"count":2,"sum":3,"min":1,"max":2,"buckets":)" +
           pairs + "}}}";
  };
  // The well-formed document first, so each case below fails on its pair.
  EXPECT_NO_THROW(obs::snapshot_from_json(buckets("[[2753,1],[2754,1]]")));
  const std::string bad[] = {
      // three elements, and one:
      buckets("[[2753,1],[2754,1,0]]"),
      buckets("[[2753,1,0],[2754,1]]"),
      buckets("[[2753,1],[2754]]"),
      // negative numbers:
      buckets("[[-2753,1],[2754,1]]"),
      buckets("[[2753,1],[2754,-1]]"),
      // non-integers, including integral values written as reals:
      buckets("[[2753,1],[2754,1.5]]"),
      buckets("[[2753.0,1],[2754,1]]"),
      buckets("[[2753,1e0],[2754,1]]"),
      buckets("[[2753,\"1\"],[2754,1]]"),
      buckets("[[2753,1],[2754,18446744073709551616]]"),
      // not an array of pairs at all:
      buckets("[2753,1]"),
      buckets("{}"),
  };
  for (const std::string& text : bad)
    EXPECT_THROW(obs::snapshot_from_json(text), std::invalid_argument) << text;
}

TEST(SnapshotImport, FuzzedGarbageNeverCrashes) {
  // Mutate a valid export with random splices; every outcome must be either
  // a clean parse or std::invalid_argument — never a crash or hang.
  Rng rng(77);
  const std::string good = random_snapshot(rng, "fz").to_json();
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = good;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0: text[pos] = static_cast<char>(rng.uniform_int(32, 126)); break;
        case 1: text.erase(pos, 1); break;
        default: text.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
      }
    }
    try {
      (void)obs::snapshot_from_json(text);
    } catch (const std::invalid_argument&) {
      // expected for most mutations
    }
  }
}

// ------------------------------------------------------- snapshot deltas

TEST(MergeAlgebra, MinusBoundsTheDeltaExtremesByItsBuckets) {
  obs::LogHistogram base, whole;
  for (const double x : {10.0, 500.0}) {
    base.record(x);
    whole.record(x);
  }
  for (const double x : {200.3, 300.0}) whole.record(x);
  obs::LogHistogram delta = whole;
  delta.subtract(base);
  EXPECT_EQ(delta.count(), 2u);
  // 200.3 rounds to 200, in bucket [200, 201], whose values start at
  // 199.5; 300 sits in [300, 303], whose values end at 303.5.
  EXPECT_EQ(delta.min(), 199.5);
  EXPECT_EQ(delta.max(), 303.5);
  delta.merge(base);
  EXPECT_TRUE(delta == whole);
}

// ---------------------------------------------------------------- diff

obs::MetricsSnapshot counters_only(
    std::initializer_list<std::pair<const char*, std::uint64_t>> kv) {
  obs::MetricsSnapshot s;
  for (const auto& [name, value] : kv) {
    obs::CounterSnapshot c;
    c.name = name;
    c.value = value;
    s.counters.push_back(c);
  }
  return s;
}

TEST(Diff, IdenticalSnapshotsAreClean) {
  const obs::MetricsSnapshot s = counters_only({{"a_total", 10}, {"b_total", 0}});
  const obs::DiffResult r = obs::diff_snapshots(s, s, {});
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.regressions, 0u);
  EXPECT_EQ(r.entries.size(), 2u);
}

TEST(Diff, FlagsDriftBeyondTolerance) {
  const obs::MetricsSnapshot base = counters_only({{"a_total", 100}});
  const obs::MetricsSnapshot current = counters_only({{"a_total", 104}});
  obs::DiffOptions tight;  // zero tolerance
  EXPECT_FALSE(obs::diff_snapshots(base, current, tight).clean());

  obs::DiffOptions loose;
  loose.rel_tol = 0.05;  // 4% drift within 5%
  EXPECT_TRUE(obs::diff_snapshots(base, current, loose).clean());

  obs::DiffOptions abs_only;
  abs_only.abs_tol = 4.0;
  EXPECT_TRUE(obs::diff_snapshots(base, current, abs_only).clean());
  abs_only.abs_tol = 3.0;
  EXPECT_FALSE(obs::diff_snapshots(base, current, abs_only).clean());
}

TEST(Diff, MissingMetricIsRegressionNewMetricIsAdvisory) {
  const obs::MetricsSnapshot base = counters_only({{"a_total", 1}, {"b_total", 2}});
  const obs::MetricsSnapshot current = counters_only({{"a_total", 1}, {"c_total", 3}});
  const obs::DiffResult r = obs::diff_snapshots(base, current, {});
  EXPECT_FALSE(r.clean());  // b_total vanished
  bool saw_missing = false, saw_new = false;
  for (const auto& e : r.entries) {
    if (e.name == "b_total") {
      EXPECT_TRUE(e.current_missing);
      saw_missing = true;
    }
    if (e.name == "c_total") {
      EXPECT_TRUE(e.base_missing);
      EXPECT_FALSE(e.out_of_tolerance);  // new metrics never fail the gate
      saw_new = true;
    }
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_new);
}

TEST(Diff, ComparesHistogramCountAndSumButNotGauges) {
  obs::MetricsSnapshot base;
  obs::HistogramSnapshot h;
  h.name = "tcsa_wait";
  for (const double x : {0.5, 0.5, 0.5, 1.0}) h.values.record(x);
  h.sum = 2.5;
  base.histograms.push_back(h);
  obs::GaugeSnapshot g;
  g.name = "tcsa_load";
  g.value = 0.5;
  base.gauges.push_back(g);

  obs::MetricsSnapshot current = base;
  current.gauges[0].value = 99.0;  // gauges are excluded: still clean
  EXPECT_TRUE(obs::diff_snapshots(base, current, {}).clean());

  current.histograms[0].values.record(2.0);  // count series changed
  EXPECT_FALSE(obs::diff_snapshots(base, current, {}).clean());
}

TEST(Diff, MarkdownNamesRegressedMetric) {
  const obs::MetricsSnapshot base = counters_only({{"a_total", 10}});
  const obs::MetricsSnapshot current = counters_only({{"a_total", 5}});
  const std::string md = obs::diff_snapshots(base, current, {}).to_markdown();
  EXPECT_NE(md.find("a_total"), std::string::npos);
  EXPECT_NE(md.find("REGRESSION"), std::string::npos);
}

// ------------------------------------------------------------ quantiles

TEST(SnapshotEquality, GaugesCompareByNameAndLabels) {
  const auto labeled = [](double a_value, double b_value) {
    obs::MetricsSnapshot s;
    s.gauges.push_back({"X", "", "a=\"1\"", a_value});
    s.gauges.push_back({"X", "", "b=\"1\"", b_value});
    return s;
  };
  EXPECT_FALSE(obs::snapshots_equal(labeled(1.0, 2.0), labeled(2.0, 2.0)));
  EXPECT_TRUE(obs::snapshots_equal(labeled(1.0, 2.0), labeled(1.0, 2.0)));
}

TEST(RegistryHistogram, ShardedQuantilesEqualOneLogHistogram) {
  // One quantile definition: a registry histogram fed from four threads
  // reads the same tails as one LogHistogram fed the same values — live,
  // after the threads exit, and after a JSON round trip.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset_metrics();
  const obs::MetricId id =
      obs::register_histogram("tcsa_test_sharded_us", "sharded histogram");
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> streams(kThreads);
  obs::LogHistogram reference;
  Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.normal(std::log(2000.0), 1.5)) *
                     (rng.bernoulli(0.1) ? -1.0 : 1.0);
    streams[static_cast<std::size_t>(i % kThreads)].push_back(x);
    reference.record(x);
  }
  std::latch recorded(kThreads);
  std::latch scraped(1);
  std::vector<std::thread> threads;
  for (const std::vector<double>& stream : streams)
    threads.emplace_back([&, id] {
      for (const double x : stream) obs::histogram_observe(id, x);
      recorded.count_down();
      scraped.wait();
    });
  const auto expect_reference = [&](const obs::MetricsSnapshot& snap,
                                    const char* when) {
    const obs::HistogramSnapshot* h = snap.histogram("tcsa_test_sharded_us");
    ASSERT_NE(h, nullptr) << when;
    EXPECT_TRUE(h->values == reference) << when;
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
      EXPECT_EQ(h->values.quantile(q), reference.quantile(q))
          << when << " q=" << q;
    const obs::MetricsSnapshot back = obs::snapshot_from_json(snap.to_json());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
      EXPECT_EQ(back.histogram("tcsa_test_sharded_us")->values.quantile(q),
                reference.quantile(q))
          << when << " after JSON, q=" << q;
  };
  recorded.wait();
  expect_reference(obs::snapshot(), "live shards");
  scraped.count_down();
  for (std::thread& thread : threads) thread.join();
  expect_reference(obs::snapshot(), "threads exited");
  EXPECT_TRUE(obs::histogram_values(id) == reference);
  obs::set_enabled(was_enabled);
}

/// Flips the process-wide metrics gate on for one test, starting from an
/// empty registry, and restores the previous state after.
class MetricsEnabledScope {
 public:
  MetricsEnabledScope() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset_metrics();
  }
  ~MetricsEnabledScope() { obs::set_enabled(was_); }

 private:
  bool was_;
};

/// Nearest-rank q-quantile of the registry histogram `name`.
double registry_quantile(const std::string& name, double q) {
  return obs::snapshot().histogram(name)->values.quantile(q);
}

TEST(RegistryHistogram, NearestRankMatchesHandComputedValues) {
  MetricsEnabledScope metrics_on;
  const obs::MetricId id =
      obs::register_histogram("test_reqtrace_delay_us", "test percentiles");
  const auto tail = [](double q) {
    return registry_quantile("test_reqtrace_delay_us", q);
  };
  EXPECT_EQ(tail(0.5), 0.0) << "empty histogram reads 0";
  for (int i = 1; i <= 100; ++i)
    obs::histogram_observe(id, static_cast<double>(i));
  // Nearest rank over 1..100: ceil(q*100) picks the value directly.
  EXPECT_EQ(tail(0.50), 50.0);
  EXPECT_EQ(tail(0.99), 99.0);
  EXPECT_EQ(tail(1.0), 100.0);
  EXPECT_EQ(tail(0.0), 1.0);

  const obs::MetricsSnapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* hist = snap.histogram("test_reqtrace_delay_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->values.count(), 100u);
}

TEST(RegistryHistogram, LargeStreamStaysWithinOnePercent) {
  MetricsEnabledScope metrics_on;
  const obs::MetricId id =
      obs::register_histogram("test_reqtrace_big_us", "large stream test");
  const auto tail = [](double q) {
    return registry_quantile("test_reqtrace_big_us", q);
  };
  // Far past the old 2^17-sample reservoir; a uniform ramp 0..total-1 keeps
  // the nearest-rank truth known: rank ceil(q*total) is value rank-1.
  const std::uint64_t total = (std::uint64_t{1} << 17) + 60000;
  for (std::uint64_t i = 0; i < total; ++i)
    obs::histogram_observe(id, static_cast<double>(i));
  EXPECT_EQ(obs::snapshot().histogram("test_reqtrace_big_us")->values.count(),
            total);
  for (const double q : {0.50, 0.99, 0.9999}) {
    const double truth =
        static_cast<double>(tcsa::nearest_rank_position(q, total) - 1);
    EXPECT_NEAR(tail(q), truth, truth * 0.01) << "q=" << q;
  }
  EXPECT_EQ(tail(0.0), 0.0);
  EXPECT_EQ(tail(1.0), static_cast<double>(total - 1));
}

// -------------------------------------------------------- trace merging

/// A write_chrome_trace document holding one span `name` at ts 5, written
/// as `command` with its trace epoch at `wall_us`.
std::string one_span_trace(const char* name, const std::string& command,
                           std::uint64_t wall_us,
                           std::int64_t clock_offset_us = 0,
                           std::uint64_t clock_samples = 0) {
  obs::TraceOrigin origin = obs::this_process(command);
  origin.wall_epoch_us = wall_us;
  origin.clock_offset_us = clock_offset_us;
  origin.clock_samples = clock_samples;
  obs::clear_trace();
  obs::record_span(name, 5, 2);
  std::string json;
  obs::write_chrome_trace(json, origin);
  obs::clear_trace();
  return json;
}

/// A merged document's spans and process titles, in document order.
struct MergedView {
  std::vector<std::string> process_names;
  std::vector<std::string> span_names;
  std::vector<std::uint64_t> span_ts;
  std::vector<std::uint64_t> span_pids;
};

MergedView view(const std::string& merged) {
  MergedView v;
  const obs::JsonValue doc = obs::json_parse(merged);
  for (const obs::JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "M") {
      v.process_names.push_back(e.at("args").at("name").string);
      continue;
    }
    v.span_names.push_back(e.at("name").string);
    v.span_pids.push_back(e.at("pid").uint_value);
    v.span_ts.push_back(e.at("ts").uint_value);
  }
  return v;
}

TEST(TraceOrigin, RoundTripsThroughTheTraceDocument) {
  obs::TraceOrigin origin = obs::this_process("tune");
  origin.clock_offset_us = -42;
  origin.clock_samples = 7;
  std::string json;
  obs::write_chrome_trace(json, origin);
  const obs::TraceOrigin back = obs::read_trace_origin(json, "t.json");
  EXPECT_EQ(back.command, "tune");
  EXPECT_FALSE(back.hostname.empty());
  EXPECT_EQ(back.hostname, origin.hostname);
  EXPECT_EQ(back.os_pid, origin.os_pid);
  EXPECT_EQ(back.wall_epoch_us, obs::trace_epoch_wall_us());
  EXPECT_EQ(back.clock_offset_us, -42);
  EXPECT_EQ(back.clock_samples, 7u);
}

TEST(TraceMerge, RekeysPidsAndAlignsClocks) {
  // No measured offsets: the wall epochs alone place the timelines.
  const obs::MergedTrace merged = obs::merge_chrome_traces(
      {{"serve.json", one_span_trace("a", "serve", 1000)},
       {"tune.json", one_span_trace("b", "tune", 1300)}});
  EXPECT_EQ(merged.clock_corrected, 0u);
  const MergedView v = view(merged.json);
  ASSERT_EQ(v.span_pids.size(), 2u);
  // One process_name record per trace, titled by its command.
  ASSERT_EQ(v.process_names.size(), 2u);
  EXPECT_EQ(v.process_names[0].rfind("serve · ", 0), 0u) << v.process_names[0];
  EXPECT_EQ(v.process_names[1].rfind("tune · ", 0), 0u) << v.process_names[1];
  // The first keeps ts=5; the second started 300 µs later so its span
  // shifts.
  EXPECT_EQ(v.span_ts[0], 5u);
  EXPECT_EQ(v.span_ts[1], 305u);
  EXPECT_EQ(v.span_pids[0], 1u);  // re-keyed to position + 1
  EXPECT_EQ(v.span_pids[1], 2u);
}

TEST(TraceMerge, CorrectsAClientByItsMeasuredOffset) {
  // The client's wall clock claims it started 100 µs before the server,
  // but it measured the server's trace clock to run 250 µs ahead of its
  // own: its span lands 250 µs after the same local ts on the server's
  // axis, whatever the wall clocks said. The server is the reference even
  // when named second.
  const obs::MergedTrace merged = obs::merge_chrome_traces(
      {{"tune.json", one_span_trace("b", "tune", 900, 250, 3)},
       {"serve.json", one_span_trace("a", "serve", 1000)}});
  EXPECT_EQ(merged.clock_corrected, 1u);
  const MergedView v = view(merged.json);
  ASSERT_EQ(v.process_names.size(), 2u);
  EXPECT_EQ(v.process_names[0].rfind("serve · ", 0), 0u) << v.process_names[0];
  // Merged axis origin: the client's earlier wall epoch (900), so the
  // server's ts 5 is 105 and the client's ts 5 is 100 + 250 + 5.
  ASSERT_EQ(v.span_names.size(), 2u);
  EXPECT_EQ(v.span_names[0], "a");
  EXPECT_EQ(v.span_ts[0], 105u);
  EXPECT_EQ(v.span_pids[0], 1u);
  EXPECT_EQ(v.span_names[1], "b");
  EXPECT_EQ(v.span_ts[1], 355u);
  EXPECT_EQ(v.span_pids[1], 2u);
}

TEST(TraceMerge, RefusesATraceWithoutOriginNamingTheFile) {
  const std::string serve = one_span_trace("a", "serve", 1000);
  const auto error_of = [&](const std::string& other) {
    try {
      obs::merge_chrome_traces({{"serve.json", serve}, {"old.json", other}});
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string bare = error_of("{\"traceEvents\": []}");
  EXPECT_NE(bare.find("old.json"), std::string::npos) << bare;
  EXPECT_NE(bare.find("otherData"), std::string::npos) << bare;
  // An origin missing a field is as unusable as none.
  std::string partial = serve;
  partial.replace(partial.find("\"clock_samples\""), 15, "\"samples\"");
  const std::string missing = error_of(partial);
  EXPECT_NE(missing.find("old.json"), std::string::npos) << missing;
  EXPECT_NE(missing.find("clock_samples"), std::string::npos) << missing;
  EXPECT_NE(error_of("not json").find("old.json"), std::string::npos);
}

// ------------------------------------------------ bench-document import

TEST(BenchImport, ExtractsPerBenchmarkCounters) {
  const std::string doc = R"({
    "suites": {
      "micro": {
        "benchmarks": [
          {"name": "BM_Opt/8", "real_time": 1.5, "opt_nodes_total": 120,
           "items_per_second": 9.0},
          {"name": "BM_Place/4", "placement_runs_total": 7}
        ]
      }
    }
  })";
  const obs::MetricsSnapshot s = obs::counters_from_json_document(doc);
  EXPECT_EQ(s.counter_value("micro/BM_Opt/8/opt_nodes_total"), 120u);
  EXPECT_EQ(s.counter_value("micro/BM_Place/4/placement_runs_total"), 7u);
  EXPECT_EQ(s.counters.size(), 2u);  // non-_total fields are not counters
}

TEST(BenchImport, FallsBackToSnapshotGrammar) {
  const obs::MetricsSnapshot orig = counters_only({{"tcsa_x_total", 9}});
  const obs::MetricsSnapshot s = obs::counters_from_json_document(orig.to_json());
  EXPECT_EQ(s.counter_value("tcsa_x_total"), 9u);
  EXPECT_THROW(obs::counters_from_json_document("{\"neither\":1}"),
               std::invalid_argument);
}

}  // namespace
