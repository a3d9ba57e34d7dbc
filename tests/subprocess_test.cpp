// subprocess_test.cpp — the fork/exec wrapper behind the e2e suites.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "subprocess.hpp"

using namespace tcsa;

namespace {

std::string temp_path(const char* stem) {
  return testing::TempDir() + "/tcsa_subprocess_" + stem + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed());
}

TEST(Subprocess, PropagatesExitCodes) {
  EXPECT_EQ(run_command({"true"}), 0);
  EXPECT_EQ(run_command({"false"}), 1);
  EXPECT_EQ(run_command({"sh", "-c", "exit 7"}), 7);
}

TEST(Subprocess, ExecFailureYields127) {
  EXPECT_EQ(run_command({"/nonexistent/definitely-not-a-binary"}), 127);
}

TEST(Subprocess, RedirectsStdoutAndStderr) {
  const std::string out_path = temp_path("out");
  const std::string err_path = temp_path("err");
  SpawnOptions options;
  options.stdout_path = out_path;
  options.stderr_path = err_path;
  ASSERT_EQ(run_command({"sh", "-c", "echo front; echo back >&2"}, options), 0);

  std::ifstream out(out_path), err(err_path);
  std::string out_line, err_line;
  std::getline(out, out_line);
  std::getline(err, err_line);
  EXPECT_EQ(out_line, "front");
  EXPECT_EQ(err_line, "back");
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
}

TEST(Subprocess, RedirectsStdin) {
  const std::string in_path = temp_path("in");
  const std::string out_path = temp_path("cat");
  { std::ofstream(in_path) << "payload\n"; }
  SpawnOptions options;
  options.stdin_path = in_path;
  options.stdout_path = out_path;
  ASSERT_EQ(run_command({"cat"}, options), 0);
  std::ifstream out(out_path);
  std::string line;
  std::getline(out, line);
  EXPECT_EQ(line, "payload");
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(Subprocess, ChildrenRunConcurrently) {
  // Two 0.2 s sleeps spawned before either is awaited; both must report 0.
  Subprocess a = Subprocess::spawn({"sleep", "0.2"});
  Subprocess b = Subprocess::spawn({"sleep", "0.2"});
  EXPECT_GT(a.pid(), 0);
  EXPECT_GT(b.pid(), 0);
  EXPECT_NE(a.pid(), b.pid());
  EXPECT_EQ(a.wait(), 0);
  EXPECT_EQ(b.wait(), 0);
  EXPECT_TRUE(a.reaped());
  EXPECT_EQ(a.wait(), 0);  // idempotent after reaping
}

TEST(Subprocess, WaitReportsSignalDeath) {
  const int rc = run_command({"sh", "-c", "kill -KILL $$"});
  EXPECT_EQ(rc, 128 + 9);
}

}  // namespace
