// cli_test.cpp — pins the tcsactl exit-code contract through fork/exec:
// 0 on success, 1 on operational failure (e.g. connection refused), 2 on
// usage errors — with a usage hint on stderr for every usage error.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "subprocess.hpp"

#include "e2e_harness.hpp"

namespace {

using tcsa::slurp;

class CliContract : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("tcsa_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Runs tcsactl with `args`; captures stderr for the usage assertions.
  /// stdin is empty unless `stdin_path` names a file, so a command that
  /// reads it never waits on the test's. stdout goes to `stdout_path`
  /// (default: a file in the test's directory).
  int run(std::vector<std::string> args,
          const std::string& stdin_path = "/dev/null",
          std::string stdout_path = {}) {
    std::vector<std::string> argv = {TCSACTL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    tcsa::SpawnOptions options;
    options.stdin_path = stdin_path;
    options.stdout_path =
        stdout_path.empty() ? (dir_ / "stdout.txt").string() : stdout_path;
    options.stderr_path = (dir_ / "stderr.txt").string();
    return tcsa::run_command(argv, options);
  }

  std::string stdout_text() { return slurp((dir_ / "stdout.txt").string()); }
  std::string stderr_text() { return slurp((dir_ / "stderr.txt").string()); }

  /// Writes `text` to a file in the test's directory; returns its path.
  std::string write(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(CliContract, HelpAndSuccessExitZero) {
  EXPECT_EQ(run({"--help"}), 0);
  EXPECT_EQ(run({"serve", "--help"}), 0);
  EXPECT_EQ(run({"tune", "--help"}), 0);
  EXPECT_EQ(run({"swap", "--help"}), 0);
  EXPECT_EQ(run({"--cmd", "demo"}), 0);
}

TEST_F(CliContract, UnknownSubcommandExitsTwoWithUsageOnStderr) {
  EXPECT_EQ(run({"frobnicate"}), 2);
  const std::string err = stderr_text();
  EXPECT_NE(err.find("unknown subcommand: frobnicate"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliContract, UnknownCmdExitsTwoWithUsageOnStderr) {
  EXPECT_EQ(run({"--cmd", "frobnicate"}), 2);
  EXPECT_NE(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliContract, MissingRequiredPortExitsTwoWithUsageOnStderr) {
  EXPECT_EQ(run({"tune"}), 2);
  std::string err = stderr_text();
  EXPECT_NE(err.find("--port PORT is required"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);

  EXPECT_EQ(run({"swap"}), 2);
  err = stderr_text();
  EXPECT_NE(err.find("--port PORT is required"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST_F(CliContract, UnknownFlagExitsTwoWithUsageOnStderr) {
  EXPECT_EQ(run({"serve", "--frobnicate", "1"}), 2);
  EXPECT_NE(stderr_text().find("usage:"), std::string::npos);
  EXPECT_EQ(run({"--cmd", "bound", "--frobnicate", "1"}), 2);
}

TEST_F(CliContract, InvalidFlagValuesExitTwo) {
  EXPECT_EQ(run({"serve", "--port", "70000"}), 2);       // out of range
  // The flag itself is the reason, not the (empty) workload on stdin.
  EXPECT_NE(stderr_text().find("--port must be in [0, 65535]"),
            std::string::npos)
      << stderr_text();
  EXPECT_EQ(run({"tune", "--port", "1", "--channel", "64"}), 2);

  // Sizes and durations below 1 would wrap a buffer cap or a deadline (or
  // make poll() wait forever), so each is refused by name. Port 1 has no
  // listener: reaching the network would exit 1, not 2.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"serve", "--max-buffer-kb", "-1"}, "--max-buffer-kb"},
       {{"serve", "--max-buffer-kb", "0"}, "--max-buffer-kb"},
       {{"tune", "--port", "1", "--timeout-ms", "-1"}, "--timeout-ms"},
       {{"swap", "--port", "1", "--timeout-ms", "0"}, "--timeout-ms"},
       {{"loadgen", "--port", "1", "--duration-ms", "-1"}, "--duration-ms"},
       {{"loadgen", "--port", "1", "--ramp-timeout-ms", "-1"},
        "--ramp-timeout-ms"}};
  for (const auto& [args, flag] : cases) {
    EXPECT_EQ(run(args), 2) << flag;
    EXPECT_NE(stderr_text().find(flag + " must be >= 1"), std::string::npos)
        << stderr_text();
  }
}

TEST_F(CliContract, OperationalFailureExitsOne) {
  // Nothing listens on port 1: connection refused is an operational
  // failure (exit 1), not a usage error — the command line was fine.
  EXPECT_EQ(run({"tune", "--port", "1", "--timeout-ms", "2000"}), 1);
  EXPECT_EQ(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliContract, OutputFileThatCannotBeWrittenExitsOne) {
  // /dev/full opens fine and fails every write: the command must notice at
  // close and fail naming the file, not exit 0 with the output lost.
  EXPECT_EQ(run({"--cmd", "demo", "--metrics-out", "/dev/full"}), 1);
  EXPECT_NE(stderr_text().find("/dev/full"), std::string::npos)
      << stderr_text();
  EXPECT_EQ(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliContract, StandardOutputThatCannotBeWrittenExitsOne) {
  // stdout is buffered, so /dev/full fails only at the final flush: the
  // workload is lost, and the exit code must say so.
  EXPECT_EQ(run({"--cmd", "demo"}, "/dev/null", "/dev/full"), 1);
  EXPECT_NE(stderr_text().find("tcsactl: failed writing standard output"),
            std::string::npos)
      << stderr_text();
  EXPECT_EQ(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliContract, UnreadableInputExitsOne) {
  // A directory opens for reading and fails every read: that is an
  // operational failure naming the path, not an empty workload.
  const std::string path = dir_.string();
  EXPECT_EQ(run({"--cmd", "bound", "--workload", path}), 1);
  EXPECT_NE(stderr_text().find("failed reading workload file: " + path),
            std::string::npos)
      << stderr_text();
  EXPECT_EQ(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliContract, StatRefusesATargetWhosePortIsNotAllDigits) {
  // The port is parsed in full: "80x" must not connect to port 80.
  for (const char* target : {"127.0.0.1:80x", "127.0.0.1:x80", "127.0.0.1:",
                             "127.0.0.1:-1", "127.0.0.1:0", "127.0.0.1:65536",
                             "127.0.0.1:99999999999999999999"}) {
    EXPECT_EQ(run({"stat", target}), 2) << target;
    EXPECT_NE(stderr_text().find("bad port in target"), std::string::npos)
        << target << ": " << stderr_text();
  }
}

TEST_F(CliContract, RetiredArtifactOptionsExitTwo) {
  // Traces describe themselves, so no command writes a run directory any
  // more and nothing reads one.
  const std::vector<std::vector<std::string>> cases = {
      {"--cmd", "demo", "--out-dir", dir_.string()},
      {"--cmd", "demo", "--run-id", "r"},
      {"serve", "--out-dir", dir_.string()},
      {"serve", "--run-id", "r"},
      {"tune", "--port", "1", "--out-dir", dir_.string()},
      {"tune", "--port", "1", "--run-id", "r"},
      {"loadgen", "--port", "1", "--out-dir", dir_.string()},
      {"loadgen", "--port", "1", "--run-id", "r"},
      {"obs", "report", "--dir", dir_.string()},
      {"obs", "report", "--points", "p.json"},
      {"trace", "merge", "--dir", dir_.string()}};
  for (const std::vector<std::string>& args : cases) {
    EXPECT_EQ(run(args), 2) << args[0] << ' ' << args[1];
    EXPECT_NE(stderr_text().find("usage:"), std::string::npos);
  }
}

TEST_F(CliContract, TraceMergeRefusesATraceWithoutOriginNamingIt) {
  const std::string bare = write("bare.trace.json", "{\"traceEvents\": []}\n");
  EXPECT_EQ(run({"trace", "merge", bare}), 2);
  EXPECT_NE(stderr_text().find(bare), std::string::npos) << stderr_text();
  EXPECT_NE(stderr_text().find("otherData"), std::string::npos)
      << stderr_text();
  EXPECT_EQ(run({"trace", "merge"}), 2);
}

TEST_F(CliContract, ServeFailsBeforeAiringWhenItsPortFileIsLost) {
  // A script polling the port file would never see the port: serve exits 1
  // before going on air instead of airing to nobody.
  ASSERT_EQ(run({"--cmd", "demo"}), 0);
  const std::string workload = (dir_ / "workload.tcsa").string();
  std::filesystem::copy_file(dir_ / "stdout.txt", workload);
  EXPECT_EQ(run({"serve", "--workload", workload, "--port", "0",
                 "--port-file", "/dev/full", "--slots", "5"}),
            1);
  const std::string err = stderr_text();
  EXPECT_NE(err.find("/dev/full"), std::string::npos) << err;
  EXPECT_EQ(err.find("on air"), std::string::npos) << err;
}

// ------------------------------------------------------ golden output
//
// The stdout of the offline commands on the demo workload, byte for byte as
// tcsactl printed it when it still formatted through iostreams: the switch
// to util/text.hpp must not move a byte of the tcsa v1 formats or reports.

constexpr const char* kDemoWorkload =
    "tcsa-workload v1\n"
    "groups 3\n"
    "group 2 3\n"
    "group 4 5\n"
    "group 8 3\n";

// --cmd schedule (PAMAD on the Theorem 3.1 minimum, 4 channels).
constexpr const char* kDemoProgram =
    "tcsa-program v1\n"
    "shape 4 7\n"
    "row 0 0 4 0 9 0 4 0\n"
    "row 1 1 5 1 10 1 5 1\n"
    "row 2 2 6 2 . 2 6 2\n"
    "row 3 3 7 8 . 3 7 .\n";

// --cmd schedule --channels 2: below the bound, so validation fails.
constexpr const char* kTwoChannelProgram =
    "tcsa-program v1\n"
    "shape 2 10\n"
    "row 0 0 2 4 6 8 0 2 4 6 10\n"
    "row 1 1 3 5 7 9 1 3 5 7 .\n";

TEST_F(CliContract, DemoPrintsTheGoldenWorkload) {
  ASSERT_EQ(run({"--cmd", "demo"}), 0);
  EXPECT_EQ(stdout_text(), kDemoWorkload);
}

TEST_F(CliContract, ScheduleAndItsStderrAreGolden) {
  const std::string workload = write("w.tcsa", kDemoWorkload);
  ASSERT_EQ(run({"--cmd", "schedule"}, workload), 0);
  EXPECT_EQ(stdout_text(), kDemoProgram);
  EXPECT_EQ(stderr_text(),
            "scheduled pamad on 4 channels, cycle 7, predicted AvgD 0\n");
  ASSERT_EQ(run({"--cmd", "schedule", "--channels", "2"}, workload), 0);
  EXPECT_EQ(stdout_text(), kTwoChannelProgram);
  EXPECT_EQ(stderr_text(),
            "scheduled pamad on 2 channels, cycle 10, predicted AvgD "
            "0.345455\n");
}

TEST_F(CliContract, ValidateIsGolden) {
  const std::string workload = write("w.tcsa", kDemoWorkload);
  ASSERT_EQ(run({"--cmd", "validate", "--workload", workload},
                write("p.tcsa", kDemoProgram)),
            0);
  EXPECT_EQ(stdout_text(), "VALID  worst wait: 7  worst lateness: 0\n");
  ASSERT_EQ(run({"--cmd", "validate", "--workload", workload},
                write("p2.tcsa", kTwoChannelProgram)),
            1);
  EXPECT_EQ(stdout_text(),
            "INVALID  worst wait: 10  worst lateness: 3\n"
            "violation: page 0 has an appearance gap of 5 > expected time 2\n"
            "violation: page 1 has an appearance gap of 5 > expected time 2\n"
            "violation: page 2 has an appearance gap of 5 > expected time 2\n"
            "violation: page 3 has an appearance gap of 5 > expected time 4\n"
            "violation: page 4 has an appearance gap of 5 > expected time 4\n"
            "violation: page 5 has an appearance gap of 5 > expected time 4\n"
            "violation: page 6 has an appearance gap of 5 > expected time 4\n"
            "violation: page 7 has an appearance gap of 5 > expected time 4\n"
            "violation: page 8 has an appearance gap of 10 > expected time 8\n"
            "violation: page 9 has an appearance gap of 10 > expected time 8\n"
            "violation: page 10 first completes at 10 > expected time 8\n"
            "violation: page 10 has an appearance gap of 10 > expected time "
            "8\n");
}

TEST_F(CliContract, InspectIsGolden) {
  const std::string workload = write("w.tcsa", kDemoWorkload);
  ASSERT_EQ(run({"--cmd", "inspect", "--workload", workload},
                write("p.tcsa", kDemoProgram)),
            0);
  EXPECT_EQ(stdout_text(),
            "program: 4 channels x 7 slots, 25/28 occupied (89.29%)\n"
            "group  t_i  copies  ideal-gap  mean-gap  worst-gap  slot-share\n"
            "    1    2       4       1.75      1.75          2      48.00%\n"
            "    2    4       2       3.50      3.50          4      40.00%\n"
            "    3    8       1       7.00      7.00          7      12.00%\n"
            "occupancy: 9994996\n");
  ASSERT_EQ(run({"--cmd", "inspect", "--workload", workload},
                write("p2.tcsa", kTwoChannelProgram)),
            0);
  EXPECT_EQ(stdout_text(),
            "program: 2 channels x 10 slots, 19/20 occupied (95.00%)\n"
            "group  t_i  copies  ideal-gap  mean-gap  worst-gap  slot-share\n"
            "    1    2       2       5.00      5.00          5      31.58%\n"
            "    2    4       2       5.00      5.00          5      52.63%\n"
            "    3    8       1      10.00     10.00         10      15.79%\n"
            "occupancy: 9999999994\n");
}

}  // namespace
