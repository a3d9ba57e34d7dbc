// subprocess.hpp — minimal fork/exec child-process management (POSIX).
//
// The end-to-end tests use it to drive the real tcsactl binary (servers,
// clients, sweeps) as separate processes. The surface is deliberately
// small: spawn a child with an argv vector and optional stdio
// redirections, then wait for its exit code. No shell is ever involved, so
// arguments need no quoting and a hostile filename cannot become an
// injection.
#pragma once

#include <string>
#include <vector>

namespace tcsa {

/// Optional stdio plumbing for a child. Empty path = inherit the parent's
/// stream. stdin redirects from the file; stdout/stderr truncate-create.
struct SpawnOptions {
  std::string stdin_path;
  std::string stdout_path;
  std::string stderr_path;
};

/// A running (or finished) child process. Movable, not copyable; waiting is
/// mandatory — the destructor asserts the child was reaped so a forgotten
/// wait() cannot silently leak a zombie.
class Subprocess {
 public:
  /// fork/execs `argv` (argv[0] is the executable path, resolved via PATH
  /// when it contains no slash). Throws std::runtime_error when the fork or
  /// a redirection fails; an exec failure surfaces as exit code 127.
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const SpawnOptions& options = {});

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// Blocks until the child exits. Returns its exit code, or 128 + signal
  /// number when it died on a signal. Idempotent after the first call.
  int wait();

  long pid() const noexcept { return pid_; }
  bool reaped() const noexcept { return reaped_; }

 private:
  Subprocess() = default;
  long pid_ = -1;
  int exit_code_ = -1;
  bool reaped_ = false;
};

/// Convenience: spawn + wait.
int run_command(const std::vector<std::string>& argv,
                const SpawnOptions& options = {});

}  // namespace tcsa
