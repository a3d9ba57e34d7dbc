// shard_e2e_test.cpp — a sweep run as forked shard
// processes must, after merge, reproduce the single-process run (counter
// totals and sweep points) and yield one valid Chrome trace holding spans
// from every shard, and `tcsactl obs diff` must gate regressions by exit
// code. Drives the real tcsactl binary via fork/exec.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/subprocess.hpp"

#ifndef TCSACTL_PATH
#error "shard_e2e_test requires -DTCSACTL_PATH=\"...\" from CMake"
#endif

using namespace tcsa;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Shared fixture: one sharded run (4 forked children) and one
/// single-process run over the identical workload + grid, both merged.
class ShardE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new std::filesystem::path(
        std::filesystem::path(testing::TempDir()) /
        ("tcsa_shard_e2e_" + std::to_string(::getpid())));
    std::filesystem::create_directories(workload_dir());
    {
      std::ofstream out(workload_path());
      out << workload_to_string(make_workload({2, 4, 8}, {3, 5, 3}));
    }
    ASSERT_EQ(run_sweep({"--shards", "4", "--jobs", "2"}, sharded_dir()), 0);
    ASSERT_EQ(run_sweep({}, single_dir()), 0);
    ASSERT_EQ(obs_merge(sharded_dir()), 0);
    ASSERT_EQ(obs_merge(single_dir()), 0);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*root_, ec);
    delete root_;
    root_ = nullptr;
  }

  static std::filesystem::path workload_dir() { return *root_ / "in"; }
  static std::string workload_path() {
    return (workload_dir() / "workload.txt").string();
  }
  static std::string sharded_dir() { return (*root_ / "sharded").string(); }
  static std::string single_dir() { return (*root_ / "single").string(); }

  static int run_sweep(const std::vector<std::string>& extra,
                       const std::string& out_dir) {
    std::filesystem::create_directories(out_dir);
    std::vector<std::string> argv = {
        TCSACTL_PATH, "--cmd",      "sweep", "--workload", workload_path(),
        "--requests",  "400",       "--seed", "7",         "--out-dir",
        out_dir};
    argv.insert(argv.end(), extra.begin(), extra.end());
    SpawnOptions options;
    options.stdout_path = out_dir + "/driver.stdout.txt";
    options.stderr_path = out_dir + "/driver.stderr.txt";
    return run_command(argv, options);
  }

  static int obs_merge(const std::string& dir) {
    SpawnOptions options;
    options.stdout_path = dir + "/merge.stdout.txt";
    options.stderr_path = dir + "/merge.stderr.txt";
    return run_command({TCSACTL_PATH, "obs", "merge", "--dir", dir}, options);
  }

  static std::filesystem::path* root_;
};

std::filesystem::path* ShardE2E::root_ = nullptr;

TEST_F(ShardE2E, ShardProcessesWroteCompleteArtifactSets) {
  for (int shard = 0; shard < 4; ++shard) {
    const std::string stem = sharded_dir() + "/shard-" + std::to_string(shard);
    for (const char* kind :
         {".manifest.json", ".metrics.json", ".trace.json", ".points.json"})
      EXPECT_TRUE(std::filesystem::exists(stem + kind)) << stem << kind;
  }
  const obs::RunManifest m0 =
      obs::manifest_from_json(slurp(sharded_dir() + "/shard-0.manifest.json"));
  const obs::RunManifest m1 =
      obs::manifest_from_json(slurp(sharded_dir() + "/shard-1.manifest.json"));
  EXPECT_EQ(m0.run_id, m1.run_id);
  EXPECT_EQ(m0.config_digest, m1.config_digest);
  EXPECT_EQ(m0.shard_count, 4);
  EXPECT_NE(m0.os_pid, m1.os_pid);  // genuinely separate processes

  // Same workload + grid ⇒ same digest as the single-process run.
  const obs::RunManifest single =
      obs::manifest_from_json(slurp(single_dir() + "/shard-0.manifest.json"));
  EXPECT_EQ(single.config_digest, m0.config_digest);
  EXPECT_EQ(single.shard_count, 1);
}

TEST_F(ShardE2E, MergedCountersMatchSingleProcessRun) {
  const obs::MetricsSnapshot merged =
      obs::snapshot_from_json(slurp(sharded_dir() + "/merged.metrics.json"));
  const obs::MetricsSnapshot single =
      obs::snapshot_from_json(slurp(single_dir() + "/merged.metrics.json"));

  // Work counters must agree exactly: the shard union covers each grid point
  // once with identical per-point seeds. Pool counters are excluded — two
  // processes legitimately run two pools (runs/idle-time differ).
  std::size_t compared = 0;
  for (const obs::CounterSnapshot& c : single.counters) {
    if (c.name.rfind("tcsa_pool_", 0) == 0) continue;
    EXPECT_EQ(merged.counter_value(c.name), c.value) << c.name;
    ++compared;
  }
  EXPECT_GE(compared, 5u);
  EXPECT_GT(single.counter_value("tcsa_sweep_points_total"), 0u);
  EXPECT_GT(single.counter_value("tcsa_sim_requests_total"), 0u);

  // Simulated-wait histogram (semantic work, not timing) must also agree.
  const obs::HistogramSnapshot* mh = merged.histogram("tcsa_sim_wait_slots");
  const obs::HistogramSnapshot* sh = single.histogram("tcsa_sim_wait_slots");
  ASSERT_NE(mh, nullptr);
  ASSERT_NE(sh, nullptr);
  // Exact, not just the same counts: shard snapshots carry the sparse
  // buckets and extremes, so the merged tail is the single run's tail.
  EXPECT_TRUE(mh->values == sh->values);
  for (const double q : {0.5, 0.99})
    EXPECT_EQ(mh->values.quantile(q), sh->values.quantile(q)) << "q=" << q;
  EXPECT_EQ(mh->values.min(), sh->values.min());
  EXPECT_EQ(mh->values.max(), sh->values.max());
  EXPECT_NEAR(mh->sum, sh->sum, 1e-6);
}

TEST_F(ShardE2E, MergedPointsMatchSingleProcessRun) {
  const auto merged =
      obs::points_from_json(slurp(sharded_dir() + "/merged.points.json"));
  const auto single =
      obs::points_from_json(slurp(single_dir() + "/merged.points.json"));
  ASSERT_EQ(merged.size(), single.size());
  ASSERT_FALSE(merged.empty());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].channels, single[i].channels);
    EXPECT_EQ(merged[i].method, single[i].method);
    EXPECT_DOUBLE_EQ(merged[i].avg_delay, single[i].avg_delay) << i;
    EXPECT_DOUBLE_EQ(merged[i].miss_rate, single[i].miss_rate) << i;
  }
}

TEST_F(ShardE2E, MergedTraceIsValidAndHoldsEveryShardPid) {
  const obs::JsonValue doc =
      obs::json_parse(slurp(sharded_dir() + "/merged.trace.json"));
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, obs::JsonValue::Kind::kArray);

  std::set<std::uint64_t> span_pids;
  for (const obs::JsonValue& e : events.array) {
    if (e.at("ph").string != "X") continue;
    span_pids.insert(e.at("pid").uint_value);
    EXPECT_TRUE(e.at("ts").is_uint);       // aligned, non-negative clocks
    EXPECT_NE(e.find("dur"), nullptr);
    EXPECT_NE(e.find("name"), nullptr);
  }
  EXPECT_EQ(span_pids, (std::set<std::uint64_t>{1, 2, 3, 4}))
      << "spans from every shard process, re-keyed by shard index";
}

TEST_F(ShardE2E, ObsDiffGatesByExitCode) {
  const std::string merged = sharded_dir() + "/merged.metrics.json";
  EXPECT_EQ(run_command({TCSACTL_PATH, "obs", "diff", "--base", merged,
                         "--current", merged},
                        {}),
            0);
  // Same run vs single-process run: semantic counters identical, pool
  // counters differ — must regress under zero tolerance.
  EXPECT_NE(run_command({TCSACTL_PATH, "obs", "diff", "--base", merged,
                         "--current", single_dir() + "/merged.metrics.json"},
                        {}),
            0);

  // Injected regression: halve one counter in a copy of the snapshot.
  obs::MetricsSnapshot tampered = obs::snapshot_from_json(slurp(merged));
  bool halved = false;
  for (obs::CounterSnapshot& c : tampered.counters) {
    if (c.name == "tcsa_sweep_points_total") {
      c.value /= 2;
      halved = true;
    }
  }
  ASSERT_TRUE(halved);
  const std::string tampered_path = sharded_dir() + "/tampered.metrics.json";
  { std::ofstream(tampered_path) << tampered.to_json(); }
  EXPECT_EQ(run_command({TCSACTL_PATH, "obs", "diff", "--base", merged,
                         "--current", tampered_path, "--rel-tol", "0.10"},
                        {}),
            1);
}

TEST_F(ShardE2E, ObsReportSummarizesTheRun) {
  const std::string report_path = sharded_dir() + "/report.md";
  SpawnOptions options;
  options.stdout_path = report_path;
  ASSERT_EQ(run_command(
                {TCSACTL_PATH, "obs", "report", "--dir", sharded_dir()},
                options),
            0);
  const std::string md = slurp(report_path);
  EXPECT_NE(md.find("# TCSA run report"), std::string::npos);
  EXPECT_NE(md.find("4/4 shard(s)"), std::string::npos);
  EXPECT_NE(md.find("tcsa_sweep_points_total"), std::string::npos);
  EXPECT_NE(md.find("| channels | method |"), std::string::npos);
}

}  // namespace
