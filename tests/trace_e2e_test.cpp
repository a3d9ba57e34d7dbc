// trace_e2e_test.cpp — ISSUE acceptance for the deadline-tracing plane:
// run the real `tcsactl serve` and `tcsactl tune --requests` over loopback,
// fuse their traces with `tcsactl trace merge`, and prove that every traced
// request's journey carries all of its spans in causal order on the
// clock-corrected timeline. A second test SIGKILLs the server mid-air and
// replays its flight-recorder ring.
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "obs/json.hpp"
#include "obs/reqtrace.hpp"
#include "util/subprocess.hpp"

#ifndef TCSACTL_PATH
#error "trace_e2e_test requires -DTCSACTL_PATH=\"...\" from CMake"
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

/// The merged timeline is clock-corrected from one min-RTT sample, so
/// cross-process comparisons carry an error of at most rtt/2 — single-digit
/// microseconds on loopback, but CI boxes stall. Same-process orderings are
/// exact; cross-process ones get this much slack.
constexpr std::int64_t kClockSlackUs = 1000;

/// One request journey reassembled from the merged trace: stage name ->
/// corrected timestamp (us). Stages are instant spans, at most one each
/// per trace id.
using Journey = std::map<std::string, std::int64_t>;

class TraceE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            ("tcsa_trace_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(root_);
    std::ofstream out(path("workload.txt"));
    save_workload(out, make_workload({2, 4, 8}, {3, 5, 3}));
  }

  void TearDown() override {
    // Failed runs keep their artifacts for the CI uploader (ci.yml).
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string path(const char* leaf) const { return (root_ / leaf).string(); }

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

  Subprocess spawn_serve(std::vector<std::string> extra_flags) {
    std::vector<std::string> argv = {
        TCSACTL_PATH, "serve",       "--workload",  path("workload.txt"),
        "--port",     "0",           "--port-file", path("port.txt"),
        "--slot-us",  "500",         "--slots",     "20000"};
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

  /// Parses a merged Chrome trace and reassembles the request journeys:
  /// every *.req.* instant span, keyed by its trace_id argument.
  std::map<std::uint64_t, Journey> load_journeys(const std::string& file) {
    std::map<std::uint64_t, Journey> journeys;
    const obs::JsonValue doc = obs::json_parse(slurp(file));
    for (const obs::JsonValue& event :
         doc.at("traceEvents").expect_array("traceEvents").array) {
      const obs::JsonValue* name = event.find("name");
      if (name == nullptr || name->string.find(".req.") == std::string::npos)
        continue;
      const obs::JsonValue* args = event.find("args");
      if (args == nullptr) continue;
      const obs::JsonValue* id = args->find("trace_id");
      if (id == nullptr) continue;
      // Trace ids pack a pid above bit 40 and exceed 2^53: the exact-uint
      // path is required, a double would collapse distinct ids.
      const std::uint64_t trace_id = id->expect_uint("trace_id");
      const auto ts =
          static_cast<std::int64_t>(event.at("ts").expect_number("ts"));
      auto [it, inserted] =
          journeys[trace_id].emplace(name->string, ts);
      EXPECT_TRUE(inserted) << "duplicate span " << name->string
                            << " for trace id " << trace_id;
    }
    return journeys;
  }

  std::filesystem::path root_;
  int port_ = 0;
};

TEST_F(TraceE2E, MergedJourneysCarryEverySpanInCausalOrder) {
  const std::string art = path("art");
  Subprocess serve = spawn_serve({"--out-dir", art, "--run-id", "trace-e2e"});

  // A traced audience member: 600 slots, 12 page requests, artifacts
  // (trace + clock-offset sidecar) into the same directory as the server's.
  SpawnOptions tune_options;
  tune_options.stdout_path = path("tune.stdout.txt");
  tune_options.stderr_path = path("tune.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "tune", "--port",
                         std::to_string(port_), "--slots", "600",
                         "--requests", "12", "--out-dir", art, "--run-id",
                         "trace-e2e-tune"},
                        tune_options),
            0)
      << slurp(path("tune.stderr.txt"));

  // Graceful end so the server flushes its artifacts.
  ASSERT_EQ(::kill(static_cast<pid_t>(serve.pid()), SIGTERM), 0);
  EXPECT_EQ(serve.wait(), 0) << slurp(path("serve.stderr.txt"));

  // Fuse the two timelines; the client shard must be clock-corrected.
  SpawnOptions merge_options;
  merge_options.stdout_path = path("merge.stdout.txt");
  merge_options.stderr_path = path("merge.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "trace", "merge", "--dir", art},
                        merge_options),
            0)
      << slurp(path("merge.stderr.txt"));
  EXPECT_NE(slurp(path("merge.stderr.txt")).find("1 clock-corrected"),
            std::string::npos);

  // Golden schema: the merged document is a Chrome trace whose journeys
  // carry all nine span families of the taxonomy.
  const std::map<std::uint64_t, Journey> journeys =
      load_journeys(art + "/journey.trace.json");
  const std::vector<std::string> kStages = {
      "client.req.sent",    "server.req.recv",     "server.req.sched",
      "client.req.acked",   "server.req.encoded",  "server.req.flushed",
      "client.req.first_byte", "client.req.decoded", "client.req.done"};
  std::size_t complete = 0;
  std::set<std::string> stages_seen;
  for (const auto& [trace_id, journey] : journeys) {
    for (const auto& [stage, ts] : journey) stages_seen.insert(stage);
    // The last request may have been in flight when tune disconnected;
    // causal assertions apply to every journey that closed.
    if (journey.count("client.req.done") == 0) continue;
    ++complete;
    for (const std::string& stage : kStages)
      EXPECT_EQ(journey.count(stage), 1u)
          << "journey " << trace_id << " is missing " << stage;
    if (::testing::Test::HasFailure()) break;

    // Same-process orderings are exact.
    EXPECT_LE(journey.at("client.req.sent"), journey.at("client.req.acked"));
    EXPECT_LE(journey.at("client.req.acked"),
              journey.at("client.req.first_byte"));
    EXPECT_LE(journey.at("client.req.first_byte"),
              journey.at("client.req.decoded"));
    EXPECT_LE(journey.at("client.req.decoded"), journey.at("client.req.done"));
    EXPECT_LE(journey.at("server.req.recv"), journey.at("server.req.sched"));
    EXPECT_LE(journey.at("server.req.sched"),
              journey.at("server.req.encoded"));
    EXPECT_LE(journey.at("server.req.encoded"),
              journey.at("server.req.flushed"));

    // Cross-process causality holds on the corrected axis, within the
    // estimator's error bound: the request left before the server saw it,
    // the ack was scheduled before the client received it, and the page
    // was flushed before the client's first byte of it.
    EXPECT_LE(journey.at("client.req.sent"),
              journey.at("server.req.recv") + kClockSlackUs);
    EXPECT_LE(journey.at("server.req.sched"),
              journey.at("client.req.acked") + kClockSlackUs);
    EXPECT_LE(journey.at("server.req.flushed"),
              journey.at("client.req.first_byte") + kClockSlackUs);
  }
  EXPECT_GE(complete, 10u) << "expected most of the 12 requested journeys "
                              "to close before the client left";
  for (const std::string& stage : kStages)
    EXPECT_EQ(stages_seen.count(stage), 1u)
        << "merged trace never saw " << stage;

  // The tune summary reports the same request activity it traced.
  const obs::JsonValue summary =
      obs::json_parse(slurp(art + "/tune.summary.json"));
  const obs::JsonValue& requests = summary.at("requests");
  EXPECT_EQ(requests.at("sent").expect_uint("sent"), 12u);
  EXPECT_EQ(requests.at("completed").expect_uint("completed"), complete);

  // The offset sidecar that powered the correction is well-formed.
  const obs::JsonValue offset =
      obs::json_parse(slurp(art + "/tune.offset.json"));
  EXPECT_EQ(offset.at("schema").expect_string("schema"),
            "tcsa-clock-offset/v1");
  EXPECT_GE(offset.at("samples").expect_uint("samples"), 1u);
}

TEST_F(TraceE2E, SigkilledServerLeavesAReplayableFlightRing) {
  const std::string flight = path("flight.bin");
  Subprocess serve =
      spawn_serve({"--flight-out", flight, "--flight-events", "4096"});

  // Generate journeys so the ring holds server-side events, then kill the
  // server dead — no signal handler, no destructor, no seal.
  SpawnOptions tune_options;
  tune_options.stdout_path = path("tune.stdout.txt");
  tune_options.stderr_path = path("tune.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "tune", "--port",
                         std::to_string(port_), "--slots", "400",
                         "--requests", "8"},
                        tune_options),
            0)
      << slurp(path("tune.stderr.txt"));
  ASSERT_EQ(::kill(static_cast<pid_t>(serve.pid()), SIGKILL), 0);
  EXPECT_EQ(serve.wait(), 128 + SIGKILL);

  // The ring replays directly …
  bool sealed = true;
  const std::vector<obs::FlightEvent> events =
      obs::flight_load(flight, &sealed);
  EXPECT_FALSE(sealed) << "SIGKILL must not leave a sealed ring";
  ASSERT_GE(events.size(), 8u * 4u)
      << "each of the 8 requests records recv/sched/encoded/flushed";
  std::uint64_t prev_ordinal = 0;
  std::set<std::uint64_t> ids;
  for (const obs::FlightEvent& event : events) {
    EXPECT_GT(event.ordinal, prev_ordinal);
    prev_ordinal = event.ordinal;
    EXPECT_GE(event.stage,
              static_cast<std::uint32_t>(obs::ReqStage::kServerRecv))
        << "the server ring must hold server-side stages only";
    ids.insert(event.trace_id);
  }
  EXPECT_GE(ids.size(), 8u);

  // … and through the CLI, as JSON.
  SpawnOptions replay_options;
  replay_options.stdout_path = path("flight.json");
  replay_options.stderr_path = path("replay.stderr.txt");
  ASSERT_EQ(run_command({TCSACTL_PATH, "trace", "flight", "--in", flight,
                         "--json"},
                        replay_options),
            0)
      << slurp(path("replay.stderr.txt"));
  const obs::JsonValue replay = obs::json_parse(slurp(path("flight.json")));
  ASSERT_EQ(replay.array.size(), events.size());
  EXPECT_EQ(replay.array.front().at("stage").expect_string("stage"),
            obs::req_stage_name(
                static_cast<obs::ReqStage>(events.front().stage)));
}

}  // namespace
