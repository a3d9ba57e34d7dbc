// sweep_e2e_test.cpp — `tcsactl --cmd sweep` measures the grid on the
// in-process worker pool: its metrics and trace exports must be written,
// its stdout table and work counters must equal the serial library
// sweep's, its trace must describe itself and hold one span per point,
// `obs diff` and `obs report` must work on what it wrote, and its output
// must not depend on which worker measured which point. Drives the real
// tcsactl binary via fork/exec.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sweep.hpp"
#include "subprocess.hpp"
#include "util/text.hpp"
#include "workload/distributions.hpp"

#include "e2e_harness.hpp"

using namespace tcsa;

namespace {

/// The workload and grid every run here measures: the demo workload at
/// 400 requests, seed 7, channels 1 through the Theorem 3.1 minimum.
Workload demo_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }

SweepConfig demo_config() {
  SweepConfig config;
  config.sim.requests.count = 400;
  config.sim.seed = 7;
  return config;
}

/// Shared fixture: one `--cmd sweep` run exporting its metrics and trace
/// into run/, made once.
class SweepE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new std::filesystem::path(
        std::filesystem::path(testing::TempDir()) /
        ("tcsa_sweep_e2e_" + std::to_string(::getpid())));
    std::filesystem::create_directories(run_dir());
    std::ofstream(workload_path()) << workload_to_string(demo_workload());
    ASSERT_EQ(sweep({"--workload", workload_path(), "--requests", "400",
                     "--seed", "7", "--metrics-out", artifact("metrics"),
                     "--trace-out", artifact("trace")},
                    "run"),
              0)
        << slurp(path("run.stderr.txt"));
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*root_, ec);
    delete root_;
    root_ = nullptr;
  }

  static std::string path(const std::string& name) {
    return (*root_ / name).string();
  }
  static std::string workload_path() { return path("workload.tcsa"); }
  static std::string run_dir() { return path("run"); }
  static std::string artifact(const char* kind) {
    return run_dir() + "/sweep." + kind + ".json";
  }

  /// Runs `tcsactl <args>` with stdout and stderr in <tag>.stdout.txt and
  /// <tag>.stderr.txt; returns the exit code.
  static int tcsactl(const std::vector<std::string>& args,
                     const std::string& tag) {
    std::vector<std::string> argv = {TCSACTL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    SpawnOptions options;
    options.stdin_path = "/dev/null";
    options.stdout_path = path(tag + ".stdout.txt");
    options.stderr_path = path(tag + ".stderr.txt");
    return run_command(argv, options);
  }

  static int sweep(std::vector<std::string> args, const std::string& tag) {
    args.insert(args.begin(), {"--cmd", "sweep"});
    return tcsactl(args, tag);
  }

  static std::filesystem::path* root_;
};

std::filesystem::path* SweepE2E::root_ = nullptr;

TEST_F(SweepE2E, WritesCompleteArtifactSet) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(run_dir()))
    files.push_back(entry.path().filename().string());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"sweep.metrics.json",
                                             "sweep.trace.json"}));

  // The trace names the command and process that wrote it.
  const obs::TraceOrigin origin =
      obs::read_trace_origin(slurp(artifact("trace")), artifact("trace"));
  EXPECT_EQ(origin.command, "sweep");
  EXPECT_FALSE(origin.hostname.empty());
  EXPECT_GT(origin.os_pid, 0);
  EXPECT_GT(origin.wall_epoch_us, 0u);
  EXPECT_EQ(origin.clock_samples, 0u);
}

TEST_F(SweepE2E, PointsAndTableMatchSerialLibrarySweep) {
  const std::vector<SweepPoint> serial =
      run_sweep(demo_workload(), demo_config());
  ASSERT_FALSE(serial.empty());
  std::string table = "channels method    AvgD      predicted  miss%     p95\n";
  for (const SweepPoint& s : serial)
    str_append(table, s.channels, '\t', method_name(s.method), '\t',
               s.avg_delay, '\t', s.predicted_delay, '\t',
               100.0 * s.miss_rate, '\t', s.p95_delay, '\n');
  EXPECT_EQ(slurp(path("run.stdout.txt")), table);
}

TEST_F(SweepE2E, CountersMatchSerialLibrarySweep) {
  const obs::MetricsSnapshot cli =
      obs::snapshot_from_json(slurp(artifact("metrics")));
  const SweepReport serial =
      run_sweep_with_metrics(demo_workload(), demo_config(), 1);
  // The pool's own counters differ by design, and only the CLI traced.
  const auto compared = [](const std::string& name) {
    return !name.starts_with("tcsa_pool_") && !name.starts_with("tcsa_trace_");
  };
  std::size_t checked = 0;
  for (const obs::CounterSnapshot& c : cli.counters) {
    if (!compared(c.name)) continue;
    EXPECT_EQ(serial.metrics.counter_value(c.name), c.value) << c.name;
    checked += c.value > 0;
  }
  EXPECT_GE(checked, 5u);
  EXPECT_EQ(cli.counter_value("tcsa_sweep_points_total"),
            serial.points.size());
  const obs::HistogramSnapshot* ch = cli.histogram("tcsa_sim_wait_slots");
  const obs::HistogramSnapshot* sh =
      serial.metrics.histogram("tcsa_sim_wait_slots");
  ASSERT_NE(ch, nullptr);
  ASSERT_NE(sh, nullptr);
  EXPECT_TRUE(ch->values == sh->values);
}

TEST_F(SweepE2E, TraceHoldsOneSpanPerPoint) {
  const obs::MetricsSnapshot metrics =
      obs::snapshot_from_json(slurp(artifact("metrics")));
  // A ring overflow would make the count below short; this grid is small.
  ASSERT_EQ(metrics.counter_value("tcsa_trace_spans_dropped_total"), 0u);
  const obs::JsonValue doc = obs::json_parse(slurp(artifact("trace")));
  std::size_t point_spans = 0;
  for (const obs::JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "X") continue;
    EXPECT_TRUE(e.at("ts").is_uint);
    EXPECT_NE(e.find("dur"), nullptr);
    point_spans += e.at("name").string == "sweep.point";
  }
  EXPECT_EQ(point_spans, metrics.counter_value("tcsa_sweep_points_total"));
  EXPECT_GT(point_spans, 0u);
}

TEST_F(SweepE2E, ObsDiffGatesByExitCode) {
  const std::string metrics = artifact("metrics");
  EXPECT_EQ(tcsactl({"obs", "diff", "--base", metrics, "--current", metrics},
                    "diff-same"),
            0);

  // Injected regression: halve one counter in a copy of the snapshot.
  obs::MetricsSnapshot tampered = obs::snapshot_from_json(slurp(metrics));
  bool halved = false;
  for (obs::CounterSnapshot& c : tampered.counters) {
    if (c.name == "tcsa_sweep_points_total") {
      c.value /= 2;
      halved = true;
    }
  }
  ASSERT_TRUE(halved);
  const std::string tampered_path = path("tampered.metrics.json");
  std::ofstream(tampered_path) << tampered.to_json();
  EXPECT_EQ(tcsactl({"obs", "diff", "--base", metrics, "--current",
                     tampered_path, "--rel-tol", "0.10"},
                    "diff-tampered"),
            1);
  EXPECT_NE(slurp(path("diff-tampered.stdout.txt"))
                .find("tcsa_sweep_points_total"),
            std::string::npos);
}

TEST_F(SweepE2E, ObsReportSummarizesTheRun) {
  ASSERT_EQ(tcsactl({"obs", "report", "--metrics", artifact("metrics")},
                    "report"),
            0)
      << slurp(path("report.stderr.txt"));
  const std::string md = slurp(path("report.stdout.txt"));
  EXPECT_NE(md.find("# TCSA run report"), std::string::npos);
  EXPECT_NE(md.find("Overall deadline-miss rate"), std::string::npos) << md;
  EXPECT_NE(md.find("tcsa_sweep_points_total"), std::string::npos);
  EXPECT_NE(md.find("| tcsa_sim_wait_slots |"), std::string::npos) << md;
}

TEST_F(SweepE2E, RetiredShardOptionsExitTwo) {
  for (const char* flag : {"--shards", "--jobs", "--shard-index"})
    EXPECT_EQ(sweep({"--workload", workload_path(), flag, "2"}, "retired"), 2)
        << flag;
  EXPECT_EQ(tcsactl({"obs", "merge", "--dir", run_dir()}, "merge"), 2);
}

TEST_F(SweepE2E, LSkewedSweepIsReproducible) {
  // The L-skewed Figure-4 workload overflows placement windows at some
  // points; whichever worker measures them, two runs print the same bytes.
  const std::string lskewed = path("lskewed.tcsa");
  std::ofstream(lskewed) << workload_to_string(
      make_paper_workload(GroupSizeShape::kLSkewed));
  for (const char* tag : {"lskewed-a", "lskewed-b"})
    ASSERT_EQ(sweep({"--workload", lskewed, "--requests", "400",
                     "--metrics-out", path(std::string(tag) + ".json")},
                    tag),
              0)
        << slurp(path(std::string(tag) + ".stderr.txt"));
  const obs::MetricsSnapshot metrics =
      obs::snapshot_from_json(slurp(path("lskewed-a.json")));
  EXPECT_GT(
      metrics.counter_value("tcsa_warn_placement_window_overflow_total"), 0u);
  EXPECT_EQ(slurp(path("lskewed-a.stdout.txt")),
            slurp(path("lskewed-b.stdout.txt")));
  EXPECT_EQ(slurp(path("lskewed-a.stderr.txt")),
            slurp(path("lskewed-b.stderr.txt")));
}

}  // namespace
