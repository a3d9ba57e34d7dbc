#include "util/log.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <mutex>

namespace tcsa {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<LogSink> g_sink{nullptr};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void write_stderr(std::string_view line) {
  while (!line.empty()) {
    const ssize_t n = ::write(STDERR_FILENO, line.data(), line.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // nowhere left to report a failing stderr
    line.remove_prefix(static_cast<std::size_t>(n));
  }
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }

LogLevel log_level() noexcept { return g_level.load(); }

void set_log_sink(LogSink sink) noexcept { g_sink.store(sink); }

namespace detail {

void emit(LogLevel level, const std::string& message) {
  if (level < g_level.load()) return;
  // Assemble the whole line before touching the sink: one write() under the
  // lock means a line can never interleave piecewise with another thread's.
  std::string line;
  line.reserve(message.size() + 16);
  line += "[tcsa ";
  line += level_name(level);
  line += "] ";
  line += message;
  line += '\n';
  LogSink sink = g_sink.load();
  if (sink == nullptr) sink = write_stderr;
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  sink(line);
}

}  // namespace detail
}  // namespace tcsa
