// Tests for src/obs: the metrics registry (counters, gauges, histograms,
// sharding, snapshots, exporters) and the trace layer (span recording,
// Chrome JSON), plus integration checks that the instrumented kernels
// actually report.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/opt.hpp"
#include "core/pamad.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/broadcast_sim.hpp"
#include "sim/sweep.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

/// Enables metrics for one test body and restores the prior state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(was_enabled_);
    obs::set_tracing_enabled(false);
  }
  bool was_enabled_ = false;
};

// ------------------------------------------------------------- registry

TEST_F(ObsTest, CounterAccumulatesAndSnapshots) {
  const obs::MetricId id =
      obs::register_counter("tcsa_test_basic_total", "test counter");
  const std::uint64_t before =
      obs::snapshot().counter_value("tcsa_test_basic_total");
  obs::counter_add(id, 1);
  obs::counter_add(id, 41);
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_test_basic_total"),
            before + 42);
}

TEST_F(ObsTest, RegistrationIsIdempotentByName) {
  const obs::MetricId a =
      obs::register_counter("tcsa_test_idem_total", "same definition");
  const obs::MetricId b =
      obs::register_counter("tcsa_test_idem_total", "same definition");
  EXPECT_EQ(a, b);
}

TEST_F(ObsTest, DisabledRecordersAreNoOps) {
  const obs::MetricId id =
      obs::register_counter("tcsa_test_gate_total", "gating");
  const std::uint64_t before =
      obs::snapshot().counter_value("tcsa_test_gate_total");
  obs::set_enabled(false);
  obs::counter_add(id, 100);
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_test_gate_total"), before);
  obs::set_enabled(true);
  obs::counter_add(id, 1);
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_test_gate_total"), before + 1);
}

TEST_F(ObsTest, AlwaysVariantBypassesTheGate) {
  // WARN-class events (placement overflow, OPT budget bail) must stay
  // countable even with metrics off.
  const obs::MetricId id =
      obs::register_counter("tcsa_test_warn_total", "warn-class");
  const std::uint64_t before =
      obs::snapshot().counter_value("tcsa_test_warn_total");
  obs::set_enabled(false);
  obs::counter_add_always(id, 3);
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_test_warn_total"), before + 3);
}

TEST_F(ObsTest, GaugeIsLastWriteWins) {
  const obs::MetricId id = obs::register_gauge("tcsa_test_gauge", "gauge");
  obs::gauge_set(id, 2.5);
  obs::gauge_set(id, -7.0);
  const obs::MetricsSnapshot snap = obs::snapshot();
  double value = 1e9;
  for (const obs::GaugeSnapshot& g : snap.gauges)
    if (g.name == "tcsa_test_gauge") value = g.value;
  EXPECT_DOUBLE_EQ(value, -7.0);
}

TEST_F(ObsTest, CountersSumAcrossThreads) {
  // 8 threads, each bumping its own shard; the scrape must see every add
  // even though no thread ever touched another's cache line.
  const obs::MetricId id =
      obs::register_counter("tcsa_test_mt_total", "multithreaded");
  const std::uint64_t before =
      obs::snapshot().counter_value("tcsa_test_mt_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id] {
      for (std::uint64_t i = 0; i < kAdds; ++i) obs::counter_add(id, 1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Shards of exited threads are folded into the retired accumulator.
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_test_mt_total"),
            before + kThreads * kAdds);
}

// ------------------------------------------------------------ histograms

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveUpper) {
  const obs::MetricId id = obs::register_histogram(
      "tcsa_test_hist_bounds", "boundary semantics", {1.0, 10.0, 100.0});
  obs::histogram_observe(id, 0.5);    // <= 1
  obs::histogram_observe(id, 1.0);    // <= 1 (Prometheus: le is inclusive)
  obs::histogram_observe(id, 1.5);    // <= 10
  obs::histogram_observe(id, 10.0);   // <= 10
  obs::histogram_observe(id, 99.0);   // <= 100
  obs::histogram_observe(id, 1e6);    // +Inf
  const obs::MetricsSnapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* h = snap.histogram("tcsa_test_hist_bounds");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(h->counts[0], 2u);
  EXPECT_EQ(h->counts[1], 2u);
  EXPECT_EQ(h->counts[2], 1u);
  EXPECT_EQ(h->counts[3], 1u);
  EXPECT_EQ(h->total(), 6u);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + 1.5 + 10.0 + 99.0 + 1e6);
}

TEST_F(ObsTest, HistogramRebindingBoundsThrows) {
  obs::register_histogram("tcsa_test_hist_fixed", "fixed bounds", {1.0, 2.0});
  EXPECT_THROW(obs::register_histogram("tcsa_test_hist_fixed", "fixed bounds",
                                       {1.0, 2.0, 3.0}),
               std::invalid_argument);
}

// ------------------------------------------------------------- snapshots

TEST_F(ObsTest, SnapshotMinusIsolatesARun) {
  const obs::MetricId id =
      obs::register_counter("tcsa_test_delta_total", "delta");
  obs::counter_add(id, 5);
  const obs::MetricsSnapshot before = obs::snapshot();
  obs::counter_add(id, 7);
  const obs::MetricsSnapshot delta = obs::snapshot().minus(before);
  EXPECT_EQ(delta.counter_value("tcsa_test_delta_total"), 7u);
}

TEST_F(ObsTest, SnapshotMergeSumsByName) {
  const obs::MetricId c =
      obs::register_counter("tcsa_test_merge_total", "merge");
  const obs::MetricId h = obs::register_histogram(
      "tcsa_test_merge_hist", "merge hist", {1.0, 2.0});
  const obs::MetricsSnapshot before = obs::snapshot();
  obs::counter_add(c, 3);
  obs::histogram_observe(h, 0.5);
  const obs::MetricsSnapshot first = obs::snapshot().minus(before);
  obs::counter_add(c, 4);
  obs::histogram_observe(h, 1.5);
  obs::MetricsSnapshot merged = first;
  merged.merge(obs::snapshot().minus(before).minus(first));
  EXPECT_EQ(merged.counter_value("tcsa_test_merge_total"), 7u);
  const obs::HistogramSnapshot* hist =
      merged.histogram("tcsa_test_merge_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total(), 2u);
  EXPECT_EQ(hist->counts[0], 1u);
  EXPECT_EQ(hist->counts[1], 1u);
  EXPECT_DOUBLE_EQ(hist->sum, 2.0);
}

TEST_F(ObsTest, CounterValueOfUnknownNameIsZero) {
  EXPECT_EQ(obs::snapshot().counter_value("tcsa_no_such_metric_total"), 0u);
  EXPECT_EQ(obs::snapshot().histogram("tcsa_no_such_hist"), nullptr);
}

// ------------------------------------------------------------- exporters

TEST_F(ObsTest, JsonExportContainsSectionsAndValues) {
  const obs::MetricId id =
      obs::register_counter("tcsa_test_json_total", "json export");
  obs::counter_add(id, 9);
  const std::string json = obs::snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"tcsa_test_json_total\""), std::string::npos);
}

TEST_F(ObsTest, PrometheusExportFollowsExposition) {
  const obs::MetricId c =
      obs::register_counter("tcsa_test_prom_total", "prom export");
  const obs::MetricId h = obs::register_histogram(
      "tcsa_test_prom_hist", "prom hist", {1.0, 2.0});
  obs::counter_add(c, 2);
  obs::histogram_observe(h, 0.5);
  obs::histogram_observe(h, 5.0);
  const std::string text = obs::snapshot().to_prometheus();
  EXPECT_NE(text.find("# HELP tcsa_test_prom_total prom export"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tcsa_test_prom_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tcsa_test_prom_hist histogram"),
            std::string::npos);
  // Buckets are cumulative and end in +Inf == _count.
  EXPECT_NE(text.find("tcsa_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("tcsa_test_prom_hist_count"), std::string::npos);
  EXPECT_NE(text.find("tcsa_test_prom_hist_sum"), std::string::npos);
}

TEST_F(ObsTest, LabeledGaugeExposesSeriesWithOneHelpBlock) {
  // tcsa_build_info-style info gauge: fixed labels, value 1. The exposition
  // must carry the labels on the sample line but HELP/TYPE on the bare name.
  const std::string labels =
      obs::format_label("git_describe", "v1.2-3-gabc") + ',' +
      obs::format_label("obs", "on");
  const obs::MetricId id =
      obs::register_gauge("tcsa_test_info", "labeled info gauge", labels);
  obs::gauge_set(id, 1.0);

  const std::string text = obs::snapshot().to_prometheus();
  EXPECT_NE(text.find("# HELP tcsa_test_info labeled info gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tcsa_test_info gauge"), std::string::npos);
  EXPECT_NE(
      text.find(
          "tcsa_test_info{git_describe=\"v1.2-3-gabc\",obs=\"on\"} 1"),
      std::string::npos);
  // The bare name must never appear as an unlabeled sample.
  EXPECT_EQ(text.find("\ntcsa_test_info 1"), std::string::npos);

  // The JSON artifact keys the series by name{labels} so the strict
  // importer round-trips it as an opaque gauge key.
  const std::string json = obs::snapshot().to_json();
  EXPECT_NE(
      json.find("tcsa_test_info{git_describe=\\\"v1.2-3-gabc\\\""),
      std::string::npos);
}

TEST_F(ObsTest, FormatLabelEscapesQuotesBackslashesAndNewlines) {
  EXPECT_EQ(obs::format_label("path", "a\\b"), "path=\"a\\\\b\"");
  EXPECT_EQ(obs::format_label("msg", "say \"hi\""),
            "msg=\"say \\\"hi\\\"\"");
  EXPECT_EQ(obs::format_label("nl", "two\nlines"),
            "nl=\"two\\nlines\"");
}

TEST_F(ObsTest, SameNameDifferentLabelsAreDistinctGaugeSeries) {
  const std::string a = obs::format_label("loop", "0");
  const std::string b = obs::format_label("loop", "1");
  const obs::MetricId ga =
      obs::register_gauge("tcsa_test_per_loop", "per-loop gauge", a);
  const obs::MetricId gb =
      obs::register_gauge("tcsa_test_per_loop", "per-loop gauge", b);
  EXPECT_NE(ga, gb);
  obs::gauge_set(ga, 10.0);
  obs::gauge_set(gb, 20.0);

  const obs::MetricsSnapshot snap = obs::snapshot();
  int seen = 0;
  for (const auto& gauge : snap.gauges) {
    if (gauge.name != "tcsa_test_per_loop") continue;
    ++seen;
    EXPECT_DOUBLE_EQ(gauge.value, gauge.labels == a ? 10.0 : 20.0);
  }
  EXPECT_EQ(seen, 2);
}

TEST_F(ObsTest, AlwaysGaugeRecordsWhileRecordingIsDisabled) {
  const obs::MetricId id =
      obs::register_gauge("tcsa_test_always_gauge", "gated-off gauge");
  obs::set_enabled(false);
  obs::gauge_set(id, 7.0);  // gated: must not land
  obs::gauge_set_always(id, 42.0);
  obs::set_enabled(true);
  EXPECT_DOUBLE_EQ(obs::snapshot().gauge_value("tcsa_test_always_gauge"),
                   42.0);
}

// ---------------------------------------------------------------- tracing

TEST_F(ObsTest, SpansRecordOnlyWhileEnabled) {
  obs::clear_trace();
  {
    TCSA_TRACE_SPAN("test.disabled");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  obs::set_tracing_enabled(true);
  {
    TCSA_TRACE_SPAN_VAR(span, "test.enabled");
    EXPECT_TRUE(span.active());
    span.set_arg("items", 3);
  }
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 1u);
  obs::clear_trace();
}

TEST_F(ObsTest, ChromeTraceJsonHasEventFields) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  obs::record_span("test.span", 10, 5, "pages", 17);
  obs::set_tracing_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"pages\": 17"), std::string::npos);
  obs::clear_trace();
}

TEST_F(ObsTest, TraceCollectsSpansAcrossThreads) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) {
        TCSA_TRACE_SPAN("test.worker");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 40u);
  obs::clear_trace();
}

// ------------------------------------------------------------ integration

TEST_F(ObsTest, OptSearchReportsNodes) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const obs::MetricsSnapshot before = obs::snapshot();
  const OptResult r = opt_frequencies(w, 2);
  ASSERT_FALSE(r.S.empty());
  const obs::MetricsSnapshot delta = obs::snapshot().minus(before);
  EXPECT_GT(delta.counter_value("tcsa_opt_searches_total"), 0u);
  EXPECT_GT(delta.counter_value("tcsa_opt_nodes_total"), 0u);
  EXPECT_GT(delta.counter_value("tcsa_opt_leaves_total"), 0u);
}

TEST_F(ObsTest, SimulatorReportsRequestsAndWaits) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const PamadSchedule s = schedule_pamad(w, 2);
  SimConfig config;
  config.requests.count = 500;
  const obs::MetricsSnapshot before = obs::snapshot();
  const SimResult r = simulate_requests(s.program, w, config);
  EXPECT_EQ(r.requests, 500u);
  const obs::MetricsSnapshot delta = obs::snapshot().minus(before);
  EXPECT_EQ(delta.counter_value("tcsa_sim_requests_total"), 500u);
  const obs::HistogramSnapshot* waits =
      delta.histogram("tcsa_sim_wait_slots");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->total(), 500u);
}

TEST_F(ObsTest, SweepReportCarriesItsOwnDelta) {
  const Workload w = make_workload({2, 4}, {2, 4});
  SweepConfig config;
  config.sim.requests.count = 200;
  // Metrics recording is forced on by the call even when currently off.
  obs::set_enabled(false);
  const SweepReport report = run_sweep_with_metrics(w, config);
  EXPECT_FALSE(obs::enabled());  // prior state restored
  ASSERT_FALSE(report.points.empty());
  EXPECT_EQ(report.metrics.counter_value("tcsa_sweep_points_total"),
            report.points.size());
  EXPECT_GT(report.metrics.counter_value("tcsa_sim_requests_total"), 0u);
  EXPECT_GT(report.metrics.counter_value("tcsa_placement_runs_total"), 0u);
}

TEST_F(ObsTest, ParallelSearchTracesSubtreeSpans) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  const Workload w = make_workload({2, 4, 8, 16}, {3, 5, 4, 3});
  const OptResult r = opt_frequencies(w, 3, 2);
  ASSERT_FALSE(r.S.empty());
  obs::set_tracing_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("opt.ladder_search"), std::string::npos);
  EXPECT_NE(json.find("opt.subtree"), std::string::npos);
  obs::clear_trace();
}

TEST_F(ObsTest, RingOverflowCountsDroppedSpans) {
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot();
  ASSERT_EQ(obs::trace_spans_dropped(), 0u);

  // One thread fills its ring past capacity; every overwrite must be counted
  // so merged traces can be flagged as incomplete instead of silently short.
  const std::size_t capacity = obs::trace_ring_capacity();
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < capacity + extra; ++i) {
    TCSA_TRACE_SPAN("test.overflow");
  }
  obs::set_tracing_enabled(false);

  EXPECT_GE(obs::trace_spans_dropped(), extra);
  const obs::MetricsSnapshot delta = obs::snapshot().minus(before);
  EXPECT_EQ(delta.counter_value("tcsa_trace_spans_dropped_total"),
            obs::trace_spans_dropped());

  // The retained window still holds exactly `capacity` newest spans.
  std::ostringstream out;
  obs::write_chrome_trace(out);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_spans_dropped(), 0u);  // reset with the buffer
}

TEST_F(ObsTest, TraceEpochWallClockIsSane) {
  // The wall anchor pairs with the steady epoch for cross-process alignment;
  // it must be a plausible microsecond UNIX timestamp (after 2020-01-01).
  EXPECT_GT(obs::trace_epoch_wall_us(), 1577836800000000ULL);
  EXPECT_EQ(obs::trace_epoch_wall_us(), obs::trace_epoch_wall_us());
}

}  // namespace
}  // namespace tcsa
