// serve_e2e_test.cpp — ISSUE acceptance: fork the real `tcsactl serve`,
// tune in with the real `tcsactl tune --json`, and prove over actual
// sockets and processes that the broadcast meets every deadline, survives a
// hot swap from `tcsactl swap`, and leaves mergeable obs artifacts behind.
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "net/http_admin.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/subprocess.hpp"

#ifndef TCSACTL_PATH
#error "serve_e2e_test requires -DTCSACTL_PATH=\"...\" from CMake"
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

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            ("tcsa_serve_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(root_);
    {
      std::ofstream out(workload_path());
      save_workload(out, make_workload({2, 4, 8}, {3, 5, 3}));
    }
    {
      std::ofstream out(next_workload_path());
      save_workload(out, make_workload({2, 4, 8}, {3, 5, 4}));
    }
  }

  void TearDown() override {
    // A failed test keeps its scene — logs, artifacts, flight dumps — so
    // CI can upload the directory (see the if: failure() step in ci.yml).
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string path(const char* leaf) const { return (root_ / leaf).string(); }
  std::string workload_path() const { return path("workload.txt"); }
  std::string next_workload_path() const { return path("next.txt"); }

  /// Blocks until a --port-file/--admin-port-file appears (newline-
  /// terminated), returning the port or 0 on timeout.
  int wait_for_port(const std::string& file) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      if (std::filesystem::exists(file)) {
        const std::string contents = slurp(file);
        if (!contents.empty() && contents.back() == '\n')
          return std::stoi(contents);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 0;
  }

  /// Forks `tcsactl serve` and blocks until its --port-file appears.
  Subprocess spawn_serve(std::vector<std::string> extra_flags) {
    std::vector<std::string> argv = {
        TCSACTL_PATH, "serve",       "--workload",  workload_path(),
        "--port",     "0",           "--port-file", path("port.txt"),
        "--slot-us",  "300",         "--slots",     "6000"};
    argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());
    SpawnOptions options;
    options.stdout_path = path("serve.stdout.txt");
    options.stderr_path = path("serve.stderr.txt");
    Subprocess serve = Subprocess::spawn(argv, options);
    port_ = wait_for_port(path("port.txt"));
    EXPECT_GT(port_, 0) << "server never wrote its port file; stderr:\n"
                        << slurp(path("serve.stderr.txt"));
    return serve;
  }

  int run_tune(const char* slots, const std::string& json_out) {
    SpawnOptions options;
    options.stdout_path = json_out;
    options.stderr_path = path("tune.stderr.txt");
    return run_command({TCSACTL_PATH, "tune", "--port", std::to_string(port_),
                        "--slots", slots, "--json"},
                       options);
  }

  std::filesystem::path root_;
  int port_ = 0;
};

TEST_F(ServeE2E, TuneObservesZeroMissesAndSwapActivatesLive) {
  Subprocess serve = spawn_serve({});

  // First audience member: 300 slots of generation 1, not one late page.
  ASSERT_EQ(run_tune("300", path("tune1.json")), 0)
      << slurp(path("tune.stderr.txt"));
  const obs::JsonValue first = obs::json_parse(slurp(path("tune1.json")));
  EXPECT_GE(first.at("slots").expect_uint("slots"), 300u);
  EXPECT_EQ(first.at("deadline_misses").expect_uint("deadline_misses"), 0u);
  EXPECT_EQ(first.at("generation").expect_uint("generation"), 1u);
  EXPECT_EQ(first.at("swaps_observed").expect_uint("swaps_observed"), 0u);
  const obs::JsonValue& groups = first.at("groups").expect_array("groups");
  ASSERT_EQ(groups.array.size(), 3u);
  for (const obs::JsonValue& group : groups.array) {
    const std::uint64_t t = group.at("expected_time").expect_uint("t");
    EXPECT_LE(group.at("max_gap").expect_uint("max_gap"), t);
    EXPECT_EQ(group.at("misses").expect_uint("misses"), 0u);
    EXPECT_GT(group.at("receptions").expect_uint("receptions"), 0u);
  }

  // Hot swap from a second process while the program stays on air.
  SpawnOptions swap_options;
  swap_options.stdout_path = path("swap.stdout.txt");
  swap_options.stderr_path = path("swap.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "swap", "--port",
                         std::to_string(port_), "--workload",
                         next_workload_path()},
                        swap_options),
            0)
      << slurp(path("swap.stderr.txt"));
  EXPECT_NE(slurp(path("swap.stdout.txt")).find("swap accepted: generation 2"),
            std::string::npos);

  // Second audience member tunes in after activation: generation 2, still
  // zero misses, and the grown group now has four pages on air.
  ASSERT_EQ(run_tune("120", path("tune2.json")), 0)
      << slurp(path("tune.stderr.txt"));
  const obs::JsonValue second = obs::json_parse(slurp(path("tune2.json")));
  EXPECT_EQ(second.at("deadline_misses").expect_uint("deadline_misses"), 0u);
  EXPECT_EQ(second.at("generation").expect_uint("generation"), 2u);

  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));
  const std::string serve_log = slurp(path("serve.stderr.txt"));
  EXPECT_NE(serve_log.find("on air at"), std::string::npos);
  EXPECT_NE(serve_log.find("off air after 6000 slots (generation 2"),
            std::string::npos);
}

// The sharded server honors the same wire contract the single-loop one
// does — a real tune client sees zero misses at --loops 4 — and the load
// generator drives it from a separate process, leaving a diffable report.
TEST_F(ServeE2E, FourLoopServeMeetsDeadlinesAndLoadgenReports) {
  // Longer life (12000 slots * 300us = 3.6s) so the tune run and the
  // loadgen window both finish while the program is still on air.
  Subprocess serve = spawn_serve({"--loops", "4", "--slots", "12000"});

  ASSERT_EQ(run_tune("300", path("tune.json")), 0)
      << slurp(path("tune.stderr.txt"));
  const obs::JsonValue tuned = obs::json_parse(slurp(path("tune.json")));
  EXPECT_EQ(tuned.at("deadline_misses").expect_uint("deadline_misses"), 0u);
  EXPECT_EQ(tuned.at("generation").expect_uint("generation"), 1u);

  SpawnOptions load_options;
  load_options.stdout_path = path("loadgen.stdout.txt");
  load_options.stderr_path = path("loadgen.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "loadgen", "--port",
                         std::to_string(port_), "--sessions", "200",
                         "--threads", "2", "--duration-ms", "400",
                         "--json-out", path("loadgen.json")},
                        load_options),
            0)
      << slurp(path("loadgen.stderr.txt"));
  const obs::MetricsSnapshot report =
      obs::snapshot_from_json(slurp(path("loadgen.json")));
  EXPECT_EQ(report.counter_value("tcsa_loadgen_sessions_total"), 200u);
  EXPECT_EQ(report.counter_value("tcsa_loadgen_connect_failures_total"), 0u);
  EXPECT_EQ(report.counter_value("tcsa_loadgen_early_closes_total"), 0u);
  EXPECT_GT(report.counter_value("tcsa_loadgen_pages_total"), 0u);

  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));
  const std::string serve_log = slurp(path("serve.stderr.txt"));
  EXPECT_NE(serve_log.find("4 loops"), std::string::npos);
  EXPECT_NE(serve_log.find("off air after 12000 slots"), std::string::npos);
}

TEST_F(ServeE2E, WritesMergeableObsArtifacts) {
  const std::string art_dir = path("artifacts");
  Subprocess serve = spawn_serve({"--metrics-out", path("metrics.json"),
                                  "--out-dir", art_dir, "--run-id",
                                  "serve-e2e"});
  ASSERT_EQ(run_tune("200", path("tune.json")), 0)
      << slurp(path("tune.stderr.txt"));
  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));

  // --metrics-out snapshot: the tcsa_server_* family is present and sane.
  const obs::MetricsSnapshot direct =
      obs::snapshot_from_json(slurp(path("metrics.json")));
  EXPECT_EQ(direct.counter_value("tcsa_server_slots_aired_total"), 6000u);
  EXPECT_GE(direct.counter_value("tcsa_server_sessions_opened_total"), 1u);
  EXPECT_GT(direct.counter_value("tcsa_server_frames_sent_total"), 0u);
  EXPECT_GT(direct.counter_value("tcsa_server_bytes_sent_total"), 0u);
  EXPECT_GE(direct.counter_value("tcsa_server_tunes_total"), 1u);
  const obs::HistogramSnapshot* lag =
      direct.histogram("tcsa_server_slot_lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->total(), 6000u);

  // The --out-dir artifact set is a well-formed single-shard run …
  const obs::RunManifest manifest =
      obs::manifest_from_json(slurp(art_dir + "/serve.manifest.json"));
  EXPECT_EQ(manifest.run_id, "serve-e2e");
  EXPECT_EQ(manifest.command, "serve");
  EXPECT_EQ(manifest.shard_count, 1);
  EXPECT_FALSE(manifest.config_digest.empty());

  // … that `tcsactl obs merge` accepts like any sweep run.
  SpawnOptions merge_options;
  merge_options.stdout_path = path("merge.stdout.txt");
  merge_options.stderr_path = path("merge.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "obs", "merge", "--dir", art_dir},
                        merge_options),
            0)
      << slurp(path("merge.stderr.txt"));
  const obs::MetricsSnapshot merged =
      obs::snapshot_from_json(slurp(art_dir + "/merged.metrics.json"));
  EXPECT_EQ(merged.counter_value("tcsa_server_slots_aired_total"), 6000u);

  // The trace holds the server's span families.
  const obs::JsonValue trace =
      obs::json_parse(slurp(art_dir + "/serve.trace.json"));
  bool saw_slot_span = false;
  for (const obs::JsonValue& e : trace.at("traceEvents").array)
    if (const obs::JsonValue* name = e.find("name");
        name && name->string == "server.slot")
      saw_slot_span = true;
  EXPECT_TRUE(saw_slot_span);
}

// ---------------------------------------------------------- admin plane

namespace {

/// TSan serializes every connect/accept enough that full-scale load would
/// blow past the test timeout; scale the audience down under sanitizers.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

}  // namespace

// ISSUE acceptance: a 4-loop serve with --admin-port answers /metrics,
// /healthz, and /slots while a 2k-session loadgen hammers it, without
// breaching the slot-lag SLO — and `tcsactl stat` renders the scrape both
// as a table and as artifact-pipeline JSON accepted by `obs diff`.
TEST_F(ServeE2E, AdminPlaneAnswersUnderLoadWithoutBreachingSlo) {
  // Scale the audience to the machine: the full 2k-session fleet needs
  // real cores — on a starved box (or under TSan) the loadgen itself would
  // steal the airing loop's CPU and manufacture lag the server is not
  // responsible for.
  // The SLO threshold scales with the hardware too: when the whole test —
  // server, loadgen, and scraper — shares one or two cores, the airing
  // loop can legitimately sit preempted for hundreds of milliseconds, so
  // only a pathological stall should count as a breach there.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool full_scale = !kTsan && hw >= 8;
  const unsigned sessions =
      kTsan ? 128 : full_scale ? 2000 : hw >= 4 ? 800 : 200;
  const unsigned load_threads = !kTsan && hw >= 4 ? 4 : 2;
  const long slo_us = full_scale ? 250000 : 2000000;
  // TSan serializes the instrumented airing loop enough that a 300us slot
  // saturates loop 0; slow the clock down so admin scrapes get loop time.
  const char* slot_us = kTsan ? "3000" : "300";
  const int scrape_timeout_ms = kTsan ? 60000 : 5000;
  // 100000 slots * 300us = 30s of air time: enough that the program is
  // still broadcasting when the scrapes run even if a loaded CI box slows
  // the ramp; the test SIGTERMs the server the moment it is done.
  Subprocess serve = spawn_serve(
      {"--loops", "4", "--slots", "100000", "--slot-us", slot_us,
       "--admin-port", "0", "--admin-port-file", path("admin.txt"),
       "--slo-us", std::to_string(slo_us), "--slo-window", "64",
       "--timeline-slots", "512"});
  const int admin_port = wait_for_port(path("admin.txt"));
  ASSERT_GT(admin_port, 0) << slurp(path("serve.stderr.txt"));

  // Background audience: scrapes below happen while this is running.
  SpawnOptions load_options;
  load_options.stdout_path = path("loadgen.stdout.txt");
  load_options.stderr_path = path("loadgen.stderr.txt");
  Subprocess loadgen = Subprocess::spawn(
      {TCSACTL_PATH, "loadgen", "--port", std::to_string(port_),
       "--sessions", std::to_string(sessions), "--threads",
       std::to_string(load_threads), "--duration-ms", "5000", "--json-out",
       path("loadgen.json")},
      load_options);

  // /healthz: liveness + the watchdog's decayed percentiles. Poll until
  // the loadgen's sessions are visible so the scrape is genuinely under
  // load (connect ramp-up takes a while on small machines).
  obs::JsonValue health_doc;
  const auto ramp_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (true) {
    const net::HttpResponse health =
        net::http_get("127.0.0.1", static_cast<std::uint16_t>(admin_port),
                      "/healthz", scrape_timeout_ms);
    ASSERT_EQ(health.status, 200) << health.body;
    health_doc = obs::json_parse(health.body);
    if (health_doc.at("sessions").number > 0.0 &&
        health_doc.at("slots_aired").number > 0.0)
      break;
    ASSERT_LT(std::chrono::steady_clock::now(), ramp_deadline)
        << "no sessions appeared; loadgen stderr:\n"
        << slurp(path("loadgen.stderr.txt"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(health_doc.at("status").string, "ok");
  EXPECT_EQ(health_doc.at("loops").number, 4.0);
  EXPECT_GT(health_doc.at("sessions").number, 0.0);
  EXPECT_EQ(health_doc.at("slo_breaches").number, 0.0);

  // /metrics: Prometheus exposition with the telemetry families present.
  const net::HttpResponse prom =
      net::http_get("127.0.0.1", static_cast<std::uint16_t>(admin_port),
                    "/metrics", scrape_timeout_ms);
  ASSERT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("# TYPE tcsa_server_slots_aired_total counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("tcsa_slo_breach_total 0"), std::string::npos);
  EXPECT_NE(prom.body.find("tcsa_build_info{git_describe=\""),
            std::string::npos);
  EXPECT_NE(prom.body.find("tcsa_uptime_seconds"), std::string::npos);

  // /metrics.json: the strict artifact importer accepts a live scrape.
  const net::HttpResponse json_scrape =
      net::http_get("127.0.0.1", static_cast<std::uint16_t>(admin_port),
                    "/metrics.json", scrape_timeout_ms);
  ASSERT_EQ(json_scrape.status, 200);
  const obs::MetricsSnapshot live = obs::snapshot_from_json(json_scrape.body);
  EXPECT_GT(live.counter_value("tcsa_server_slots_aired_total"), 0u);
  EXPECT_GT(live.counter_value("tcsa_server_frames_sent_total"), 0u);
  EXPECT_EQ(live.counter_value("tcsa_slo_breach_total"), 0u);
  const obs::GaugeSnapshot* build = live.gauge("tcsa_build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(build->labels.find("loops=\"4\""), std::string::npos);
  EXPECT_NE(build->labels.find("obs=\"on\""), std::string::npos);

  // /slots: the airing timeline, newest records, every one on schedule.
  const net::HttpResponse slots =
      net::http_get("127.0.0.1", static_cast<std::uint16_t>(admin_port),
                    "/slots?max=64", scrape_timeout_ms);
  ASSERT_EQ(slots.status, 200);
  const obs::JsonValue slots_doc = obs::json_parse(slots.body);
  EXPECT_EQ(slots_doc.at("capacity").number, 512.0);
  const obs::JsonValue& records = slots_doc.at("slots").expect_array("slots");
  ASSERT_FALSE(records.array.empty());
  EXPECT_LE(records.array.size(), 64u);
  bool any_with_audience = false;
  for (const obs::JsonValue& rec : records.array) {
    EXPECT_LT(rec.at("lag_us").number, static_cast<double>(slo_us));
    if (rec.at("sessions").number > 0.0) any_with_audience = true;
  }
  EXPECT_TRUE(any_with_audience);

  // `tcsactl stat` renders the same scrape as a one-screen table …
  SpawnOptions stat_options;
  stat_options.stdout_path = path("stat.txt");
  stat_options.stderr_path = path("stat.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "stat",
                         "127.0.0.1:" + std::to_string(admin_port)},
                        stat_options),
            0)
      << slurp(path("stat.stderr.txt"));
  const std::string table = slurp(path("stat.txt"));
  EXPECT_NE(table.find("slots aired"), std::string::npos);
  EXPECT_NE(table.find("slot lag p99"), std::string::npos);

  // … and as JSON that the obs diff gate accepts against an SLO baseline.
  {
    std::ofstream base(path("slo_base.json"));
    base << "{\"counters\": {\"tcsa_slo_breach_total\": 0}, "
            "\"gauges\": {}, \"histograms\": {}}\n";
  }
  SpawnOptions stat_json_options;
  stat_json_options.stdout_path = path("live.json");
  stat_json_options.stderr_path = path("stat_json.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "stat",
                         "127.0.0.1:" + std::to_string(admin_port),
                         "--json"},
                        stat_json_options),
            0)
      << slurp(path("stat_json.stderr.txt"));
  SpawnOptions diff_options;
  diff_options.stdout_path = path("diff.stdout.txt");
  diff_options.stderr_path = path("diff.stderr.txt");
  EXPECT_EQ(run_command({TCSACTL_PATH, "obs", "diff", "--base",
                         path("slo_base.json"), "--current",
                         path("live.json")},
                        diff_options),
            0)
      << slurp(path("diff.stdout.txt")) << slurp(path("diff.stderr.txt"));

  EXPECT_EQ(loadgen.wait(), 0) << slurp(path("loadgen.stderr.txt"));
  // The program is still on air with ~30000 slots; end it early but
  // gracefully and let shutdown assertions live in the SIGTERM test.
  ::kill(static_cast<pid_t>(serve.pid()), SIGTERM);
  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));
}

// Satellite: SIGTERM lands on the self-pipe, the loop unwinds as if the
// program had ended, and --metrics-out still gets written.
TEST_F(ServeE2E, SigtermDrainsAndWritesMetricsArtifact) {
  Subprocess serve = spawn_serve(
      {"--slots", "2000000", "--metrics-out", path("metrics.json")});
  // Let it air a few hundred slots before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(static_cast<pid_t>(serve.pid()), SIGTERM), 0);
  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));

  const std::string serve_log = slurp(path("serve.stderr.txt"));
  EXPECT_NE(serve_log.find("off air"), std::string::npos);
  const obs::MetricsSnapshot snap =
      obs::snapshot_from_json(slurp(path("metrics.json")));
  EXPECT_GT(snap.counter_value("tcsa_server_slots_aired_total"), 0u);
  // SIGTERM cut the program short of its 2000000-slot schedule.
  EXPECT_LT(snap.counter_value("tcsa_server_slots_aired_total"), 2000000u);
}

}  // namespace
