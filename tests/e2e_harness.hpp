// e2e_harness.hpp — shared pieces of the suites that fork the real
// `tcsactl`: whole-file reads, the wait for a --port-file, and a fixture
// giving each test its own scene directory and a `serve` spawner writing
// into it.
#pragma once

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "subprocess.hpp"

#ifndef TCSACTL_PATH
#error "e2e_harness.hpp requires -DTCSACTL_PATH=\"...\" from CMake"
#endif

namespace tcsa {

/// The whole file at `path`; an unopenable file fails the test.
inline std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Blocks until a --port-file/--admin-port-file appears (newline-
/// terminated), returning the port or 0 on timeout.
inline int wait_for_port(const std::string& file) {
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

/// Fixture of the suites that serve: each test gets its own scene
/// directory, `<TempDir>/<prefix><pid>_<test>`, holding workload.txt (the
/// demo workload) and whatever the test writes there. A failed test keeps
/// its scene — logs, artifacts, flight dumps — so CI can upload the
/// directory (see the if: failure() step in ci.yml).
class E2EScene : public ::testing::Test {
 protected:
  /// Every spawn_serve() passes `serve_flags` after the workload and port
  /// flags.
  E2EScene(std::string prefix, std::vector<std::string> serve_flags)
      : prefix_(std::move(prefix)), serve_flags_(std::move(serve_flags)) {}

  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            (prefix_ + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(root_);
    std::ofstream(path("workload.txt"))
        << workload_to_string(make_workload({2, 4, 8}, {3, 5, 3}));
  }

  void TearDown() override {
    if (::testing::Test::HasFailure()) return;
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string path(const char* leaf) const { return (root_ / leaf).string(); }

  /// Forks `tcsactl serve` and blocks until its --port-file appears.
  Subprocess spawn_serve(std::vector<std::string> extra_flags) {
    std::vector<std::string> argv = {
        TCSACTL_PATH, "serve",  "--workload",  path("workload.txt"),
        "--port",     "0",      "--port-file", path("port.txt")};
    argv.insert(argv.end(), serve_flags_.begin(), serve_flags_.end());
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

  std::filesystem::path root_;
  int port_ = 0;

 private:
  std::string prefix_;
  std::vector<std::string> serve_flags_;
};

}  // namespace tcsa
