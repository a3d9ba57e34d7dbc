// log.hpp — small leveled logger.
//
// Benches and examples use INFO for progress; the library itself logs only at
// DEBUG (scheduler internals) and WARN (e.g. OPT's search-budget bail). The
// sink and level are process-global and test-overridable.
#pragma once

#include <string>
#include <string_view>

#include "util/text.hpp"

namespace tcsa {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the minimum level that is emitted (default kWarn: library code is
/// quiet unless something is off).
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Receives each whole line, newline included, under the emit lock.
using LogSink = void (*)(std::string_view line);

/// Redirects log output (default: one write(2) per line to stderr). Pass
/// nullptr to restore.
void set_log_sink(LogSink sink) noexcept;

namespace detail {
void emit(LogLevel level, const std::string& message);
}

/// Statement-style logging: TCSA_LOG(kInfo) << "cycle=" << t;
#define TCSA_LOG(level_name)                                          \
  for (bool tcsa_log_once =                                           \
           ::tcsa::log_level() <= ::tcsa::LogLevel::level_name;       \
       tcsa_log_once; tcsa_log_once = false)                          \
  ::tcsa::detail::LogLine(::tcsa::LogLevel::level_name)

namespace detail {
/// Accumulates one log line and emits it on destruction. Values format as
/// str_append (util/text.hpp) does, which is how std::ostream prints them.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { emit(level_, text_); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    str_append(text_, value);
    return *this;
  }

 private:
  LogLevel level_;
  std::string text_;
};
}  // namespace detail

}  // namespace tcsa
