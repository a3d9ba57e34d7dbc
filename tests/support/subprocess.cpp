#include "subprocess.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/contracts.hpp"

namespace tcsa {
namespace {

/// Opens `path` and dup2s it onto `target_fd` inside the child. Must stay
/// async-signal-safe (between fork and exec): no allocation, no throwing.
/// Returns false on failure so the child can _exit.
bool redirect(const char* path, int flags, int target_fd) {
  const int fd = ::open(path, flags, 0644);
  if (fd < 0) return false;
  const bool ok = ::dup2(fd, target_fd) >= 0;
  ::close(fd);
  return ok;
}

}  // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const SpawnOptions& options) {
  TCSA_REQUIRE(!argv.empty(), "Subprocess::spawn: empty argv");

  // Build the exec vector before forking: the child may only use
  // async-signal-safe calls, so all allocation happens here.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  if (pid == 0) {
    // Child. On any failure exit with a distinctive code; the parent turns
    // 127 into a diagnosable "exec failed" outcome.
    if (!options.stdin_path.empty() &&
        !redirect(options.stdin_path.c_str(), O_RDONLY, STDIN_FILENO))
      ::_exit(127);
    if (!options.stdout_path.empty() &&
        !redirect(options.stdout_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC, STDOUT_FILENO))
      ::_exit(127);
    if (!options.stderr_path.empty() &&
        !redirect(options.stderr_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC, STDERR_FILENO))
      ::_exit(127);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }

  Subprocess child;
  child.pid_ = pid;
  return child;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), exit_code_(other.exit_code_), reaped_(other.reaped_) {
  other.pid_ = -1;
  other.reaped_ = true;
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    TCSA_ASSERT(pid_ < 0 || reaped_,
                "Subprocess: overwriting an unreaped child");
    pid_ = other.pid_;
    exit_code_ = other.exit_code_;
    reaped_ = other.reaped_;
    other.pid_ = -1;
    other.reaped_ = true;
  }
  return *this;
}

Subprocess::~Subprocess() {
  // A destructor must not throw; reap defensively instead of asserting so
  // stack unwinding over a live child stays well defined.
  if (pid_ >= 0 && !reaped_) {
    int status = 0;
    ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  }
}

int Subprocess::wait() {
  if (reaped_) return exit_code_;
  TCSA_REQUIRE(pid_ >= 0, "Subprocess::wait: no child");
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0)
    throw std::runtime_error(std::string("waitpid failed: ") +
                             std::strerror(errno));
  reaped_ = true;
  if (WIFEXITED(status)) exit_code_ = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) exit_code_ = 128 + WTERMSIG(status);
  else exit_code_ = -1;
  return exit_code_;
}

int run_command(const std::vector<std::string>& argv,
                const SpawnOptions& options) {
  Subprocess child = Subprocess::spawn(argv, options);
  return child.wait();
}

}  // namespace tcsa
