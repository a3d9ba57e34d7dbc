// server_proc.hpp — the server under test as a child process, plus the
// outside-in probes that read it: its admin HTTP plane and /proc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A `tcsactl serve` child. The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and stop() waits until it has exited.
class ServerProc {
 public:
  /// Launches `tcsactl serve <args> --port 0 --admin-port 0` with its port
  /// files and log in `dir`; returns once the child is forked.
  ServerProc(const std::string& tcsactl, const std::string& dir,
             std::vector<std::string> args);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Waits for the port files (polling every 100 us); throws on timeout or
  /// when the child exits first.
  void wait_listening(double timeout_s);

  int pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  std::uint16_t admin_port() const noexcept { return admin_port_; }

  /// SIGTERM, then waits (SIGKILL after 5 s). Returns the exit status as
  /// waitpid reports it; 0 is a clean exit.
  int stop();

 private:
  std::string dir_;
  int pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;
};

/// GET `path` from the admin plane at 127.0.0.1:`port`; returns the body of
/// a 200 response and throws otherwise.
std::string http_get(std::uint16_t port, const std::string& path);

/// Process CPU time from /proc/<pid>/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t user = 0;
  std::uint64_t sys = 0;
};
CpuTicks read_cpu_ticks(int pid);

/// A "Vm..." field of /proc/<pid>/status in kB (e.g. "VmHWM").
std::uint64_t read_status_kb(int pid, const std::string& field);

/// Clock ticks per second (sysconf(_SC_CLK_TCK)).
long clock_ticks_per_s();

}  // namespace perfbench
