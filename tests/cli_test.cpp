// cli_test.cpp — pins the tcsactl exit-code contract through fork/exec:
// 0 on success, 1 on operational failure (e.g. connection refused), 2 on
// usage errors — with a usage hint on stderr for every usage error.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/subprocess.hpp"

#ifndef TCSACTL_PATH
#error "cli_test requires -DTCSACTL_PATH=\"...\" from CMake"
#endif

namespace {

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

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
  /// stdin is empty, so a command that reads it never waits on the test's.
  int run(std::vector<std::string> args) {
    std::vector<std::string> argv = {TCSACTL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    tcsa::SpawnOptions options;
    options.stdin_path = "/dev/null";
    options.stdout_path = (dir_ / "stdout.txt").string();
    options.stderr_path = (dir_ / "stderr.txt").string();
    return tcsa::run_command(argv, options);
  }

  std::string stderr_text() { return slurp((dir_ / "stderr.txt").string()); }

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

}  // namespace
