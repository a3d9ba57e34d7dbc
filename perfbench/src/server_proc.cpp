#include "server_proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "spans.hpp"

namespace perfbench {
namespace {

bool read_port(const std::string& path, std::uint16_t& port) {
  std::ifstream in(path);
  long value = 0;
  if (!(in >> value) || value <= 0 || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

ServerProc::ServerProc(const std::string& tcsactl, const std::string& dir,
                       std::vector<std::string> args)
    : dir_(dir) {
  ::unlink((dir + "/port").c_str());
  ::unlink((dir + "/admin_port").c_str());
  std::vector<std::string> argv = {tcsactl, "serve"};
  argv.insert(argv.end(), args.begin(), args.end());
  for (const char* extra : {"--port", "0", "--admin-port", "0"})
    argv.emplace_back(extra);
  argv.insert(argv.end(), {"--port-file", dir + "/port", "--admin-port-file",
                           dir + "/admin_port"});
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const std::string log = dir + "/server.log";
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
}

ServerProc::~ServerProc() {
  if (pid_ > 0) stop();
}

void ServerProc::wait_listening(double timeout_s) {
  const std::int64_t deadline =
      spans::now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!read_port(dir_ + "/port", port_) ||
         !read_port(dir_ + "/admin_port", admin_port_)) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before listening (see " + dir_ +
                               "/server.log)");
    }
    if (spans::now_ns() > deadline)
      throw std::runtime_error("server did not listen in time");
    ::usleep(100);
  }
}

int ServerProc::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const std::int64_t deadline = spans::now_ns() + 5'000'000'000;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (spans::now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    ::usleep(1000);
  }
  pid_ = -1;
  return status;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  spans::Span span("admin.scrape");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  // A server stuck behind on its slots must fail the scrape, not hang it.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
          response.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;
        }
      }
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.0 200") != 0 || body == std::string::npos)
    throw std::runtime_error("admin GET " + path + " failed");
  return response.substr(body + 4);
}

CpuTicks read_cpu_ticks(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name: state is field 3, utime 14.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos)
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid));
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  CpuTicks t;
  fields >> t.user >> t.sys;
  return t;
}

std::uint64_t read_status_kb(int pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size() + 1, field + ":") == 0)
      return std::stoull(line.substr(field.size() + 1));
  throw std::runtime_error("no " + field + " in /proc/" + std::to_string(pid) +
                           "/status");
}

long clock_ticks_per_s() { return ::sysconf(_SC_CLK_TCK); }

}  // namespace perfbench
