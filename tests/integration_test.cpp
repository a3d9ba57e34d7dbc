// End-to-end tests: the unified API, the sweep driver (serial and
// parallel), and a downsized Figure-5 reproduction asserting the paper's
// qualitative findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "model/validate.hpp"
#include "sim/sweep.hpp"
#include "workload/distributions.hpp"
#include "workload/rearrange.hpp"

namespace tcsa {
namespace {

// --------------------------------------------------------------- unified API

TEST(Api, MethodNamesRoundTrip) {
  for (const Method m : {Method::kSusc, Method::kPamad, Method::kMpb,
                         Method::kOpt, Method::kRoundRobin}) {
    EXPECT_EQ(parse_method(method_name(m)), m);
  }
  EXPECT_THROW(parse_method("bogus"), std::invalid_argument);
}

TEST(Api, AllMethodsProduceCompletePrograms) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  for (const Method m : {Method::kPamad, Method::kMpb, Method::kOpt,
                         Method::kRoundRobin}) {
    const ScheduleOutcome outcome = make_schedule(m, w, 2);
    EXPECT_EQ(outcome.method, m);
    EXPECT_EQ(outcome.program.cycle_length(), outcome.t_major);
    EXPECT_EQ(outcome.frequencies.size(), 3u);
    // Every page appears its S_i times.
    SlotCount expected_slots = 0;
    for (GroupId g = 0; g < w.group_count(); ++g)
      expected_slots += outcome.frequencies[static_cast<std::size_t>(g)] *
                        w.pages_in_group(g);
    EXPECT_EQ(outcome.program.occupied(), expected_slots) << method_name(m);
  }
}

TEST(Api, SuscThroughApiIsValid) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const ScheduleOutcome outcome =
      make_schedule(Method::kSusc, w, min_channels(w));
  EXPECT_TRUE(is_valid_program(outcome.program, w));
  EXPECT_DOUBLE_EQ(outcome.predicted_delay, 0.0);
}

TEST(Api, SuscBelowBoundThrows) {
  const Workload w = make_workload({2, 4}, {2, 3});
  EXPECT_THROW(make_schedule(Method::kSusc, w, 1), std::invalid_argument);
}

// -------------------------------------------------------------- sweep driver

TEST(Sweep, CoversRangeAndMethods) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 4, 60, 2, 2);
  SweepConfig config;
  config.methods = {Method::kPamad, Method::kMpb};
  config.sim.requests.count = 500;
  const auto points = run_sweep(w, config);
  const SlotCount bound = min_channels(w);
  EXPECT_EQ(points.size(), static_cast<std::size_t>(bound) * 2);
  EXPECT_EQ(points.front().channels, 1);
  EXPECT_EQ(points.back().channels, bound);
}

TEST(Sweep, StepAndRangeRespected) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 4, 60, 2, 2);
  SweepConfig config;
  config.methods = {Method::kPamad};
  config.min_channels = 2;
  config.max_channels = 8;
  config.step = 3;
  config.sim.requests.count = 200;
  const auto points = run_sweep(w, config);
  ASSERT_EQ(points.size(), 3u);  // channels 2, 5, 8
  EXPECT_EQ(points[0].channels, 2);
  EXPECT_EQ(points[1].channels, 5);
  EXPECT_EQ(points[2].channels, 8);
}

TEST(Sweep, SuscSkippedBelowBound) {
  const Workload w = make_workload({2, 4}, {2, 3});  // bound = 2
  SweepConfig config;
  config.methods = {Method::kSusc};
  config.sim.requests.count = 100;
  const auto points = run_sweep(w, config);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].channels, 2);
}

TEST(Sweep, DeterministicAcrossRuns) {
  const Workload w = make_paper_workload(GroupSizeShape::kNormal, 4, 60, 2, 2);
  SweepConfig config;
  config.methods = {Method::kPamad};
  config.sim.requests.count = 300;
  const auto a = run_sweep(w, config);
  const auto b = run_sweep(w, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].avg_delay, b[i].avg_delay);
}

TEST(Sweep, RejectsEmptyConfig) {
  const Workload w = make_workload({2}, {1});
  SweepConfig config;
  config.methods = {};
  EXPECT_THROW(run_sweep(w, config), std::invalid_argument);
}

TEST(ParallelSweep, BitIdenticalToSerial) {
  const Workload w = make_paper_workload(GroupSizeShape::kNormal, 5, 150, 4, 2);
  SweepConfig config;
  config.methods = {Method::kPamad, Method::kMpb};
  config.sim.requests.count = 1000;
  const auto serial = run_sweep(w, config);
  for (const unsigned threads : {2u, 4u, 0u}) {
    const auto parallel = run_sweep_parallel(w, config, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].channels, serial[i].channels);
      EXPECT_EQ(parallel[i].method, serial[i].method);
      EXPECT_DOUBLE_EQ(parallel[i].avg_delay, serial[i].avg_delay) << i;
      EXPECT_DOUBLE_EQ(parallel[i].predicted_delay,
                       serial[i].predicted_delay);
    }
  }
}

TEST(ParallelSweep, SingleThreadFallsBackToSerial) {
  const Workload w = make_workload({2, 4}, {4, 6});
  SweepConfig config;
  config.methods = {Method::kPamad};
  config.sim.requests.count = 200;
  const auto a = run_sweep(w, config);
  const auto b = run_sweep_parallel(w, config, 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].avg_delay, b[i].avg_delay);
}

TEST(ParallelSweep, WithMetricsDoesTheSerialRunsWork) {
  // The pooled sweep `tcsactl --cmd sweep` runs must do exactly the serial
  // sweep's work: the same points, every counter except the pool's own
  // (workers spawned, idle time) and the same simulated-wait histogram.
  const Workload w = make_paper_workload(GroupSizeShape::kNormal, 5, 150, 4, 2);
  SweepConfig config;
  config.sim.requests.count = 500;
  const SweepReport serial = run_sweep_with_metrics(w, config, 1);
  const SweepReport pooled = run_sweep_with_metrics(w, config, 4);

  ASSERT_EQ(pooled.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(pooled.points[i].channels, serial.points[i].channels) << i;
    EXPECT_EQ(pooled.points[i].method, serial.points[i].method) << i;
    EXPECT_EQ(pooled.points[i].avg_delay, serial.points[i].avg_delay) << i;
    EXPECT_EQ(pooled.points[i].predicted_delay,
              serial.points[i].predicted_delay) << i;
    EXPECT_EQ(pooled.points[i].miss_rate, serial.points[i].miss_rate) << i;
    EXPECT_EQ(pooled.points[i].p95_delay, serial.points[i].p95_delay) << i;
    EXPECT_EQ(pooled.points[i].t_major, serial.points[i].t_major) << i;
    EXPECT_EQ(pooled.points[i].window_overflows,
              serial.points[i].window_overflows) << i;
  }

  std::size_t compared = 0;
  for (const obs::CounterSnapshot& c : serial.metrics.counters) {
    if (c.name.starts_with("tcsa_pool_")) continue;
    EXPECT_EQ(pooled.metrics.counter_value(c.name), c.value) << c.name;
    ++compared;
  }
  for (const obs::CounterSnapshot& c : pooled.metrics.counters) {
    if (c.name.starts_with("tcsa_pool_")) continue;
    EXPECT_EQ(serial.metrics.counter_value(c.name), c.value) << c.name;
  }
  EXPECT_GE(compared, 5u);
  EXPECT_EQ(serial.metrics.counter_value("tcsa_sweep_points_total"),
            serial.points.size());
  EXPECT_GT(serial.metrics.counter_value("tcsa_opt_nodes_total"), 0u);

  const obs::HistogramSnapshot* sh =
      serial.metrics.histogram("tcsa_sim_wait_slots");
  const obs::HistogramSnapshot* ph =
      pooled.metrics.histogram("tcsa_sim_wait_slots");
  ASSERT_NE(sh, nullptr);
  ASSERT_NE(ph, nullptr);
  EXPECT_GT(sh->values.count(), 0u);
  EXPECT_TRUE(ph->values == sh->values);
  EXPECT_NEAR(ph->sum, sh->sum, 1e-6 * std::max(1.0, sh->sum));
}

TEST(ParallelSweep, RejectsEmptyConfigToo) {
  const Workload w = make_workload({2}, {1});
  SweepConfig config;
  config.methods = {};
  EXPECT_THROW(run_sweep_parallel(w, config, 2), std::invalid_argument);
}

// ------------------------------------- downsized Figure 5 (shape assertions)

// The full Figure 5 runs in the bench binaries; here a 300-page version
// asserts the paper's three stated findings per distribution:
//   1. PAMAD almost overlaps OPT,
//   2. PAMAD is much better than m-PB,
//   3. delay becomes near-ignorable by ~1/5 of the minimum channels.
class Figure5Shape : public ::testing::TestWithParam<GroupSizeShape> {};

TEST_P(Figure5Shape, QualitativeFindingsHold) {
  const Workload w = make_paper_workload(GetParam(), 8, 300, 4, 2);
  SweepConfig config;
  config.methods = {Method::kPamad, Method::kMpb, Method::kOpt};
  config.sim.requests.count = 3000;
  const auto points = run_sweep(w, config);

  std::map<SlotCount, std::map<Method, double>> by_channel;
  for (const SweepPoint& p : points)
    by_channel[p.channels][p.method] = p.avg_delay;

  const double scale = by_channel[1][Method::kPamad];  // worst-case delay
  ASSERT_GT(scale, 0.0);

  double pamad_sum = 0.0, mpb_sum = 0.0;
  for (const auto& [channels, methods] : by_channel) {
    const double pamad = methods.at(Method::kPamad);
    const double opt = methods.at(Method::kOpt);
    const double mpb = methods.at(Method::kMpb);
    // (1) PAMAD tracks OPT within 10% of the delay scale at every point
    //     (sampling noise included).
    EXPECT_LE(pamad - opt, scale * 0.10 + 0.5) << "channels=" << channels;
    // m-PB is never (materially) better than PAMAD anywhere.
    EXPECT_LE(pamad, mpb * 1.05 + scale * 0.02 + 0.5)
        << "channels=" << channels;
    pamad_sum += pamad;
    mpb_sum += mpb;
  }
  // (2) Aggregate gap: PAMAD at least 2x better than m-PB over the sweep.
  EXPECT_LT(pamad_sum * 2.0, mpb_sum);

  // (3) One-fifth rule, at this reduced scale a softer 20% bar (the paper's
  // full-size workload passes 5%; see PamadSchedule and the fig5 benches).
  // Meaningless for shapes whose minimum is single-digit channels.
  if (min_channels(w) >= 15) {
    const SlotCount fifth = (min_channels(w) + 4) / 5;
    EXPECT_LT(by_channel[fifth][Method::kPamad], scale * 0.20);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, Figure5Shape,
                         ::testing::ValuesIn(paper_shapes()),
                         [](const auto& info) {
                           return shape_name(info.param);
                         });

// -------------------------------------------- rearrangement end-to-end flow

TEST(EndToEnd, ArbitraryDeadlinesThroughRearrangeAndSchedule) {
  // The paper's Section 2 pipeline: arbitrary times -> ladder -> schedule.
  const std::vector<SlotCount> requested = {2, 3, 4, 6, 9, 5, 12, 7, 16, 10};
  const auto rearranged = rearrange_expected_times(requested, 2);
  const Workload& w = rearranged.workload;
  const SlotCount bound = min_channels(w);

  // Sufficient channels: every *original* deadline met, because assigned
  // times never exceed requested ones.
  const ScheduleOutcome outcome = make_schedule(Method::kSusc, w, bound);
  const ValidityReport report = validate_program(outcome.program, w);
  EXPECT_TRUE(report.valid);
  EXPECT_LE(report.worst_lateness, 0);

  // Insufficient channels: PAMAD still covers every page.
  const ScheduleOutcome tight = make_schedule(Method::kPamad, w, 1);
  const ValidityReport tight_report = validate_program(tight.program, w);
  for (PageId page = 0; page < w.total_pages(); ++page) {
    // No "page never appears" violations.
    for (const std::string& v : tight_report.violations)
      EXPECT_EQ(v.find("never appears"), std::string::npos);
  }
}

}  // namespace
}  // namespace tcsa
