// spans.hpp — the benchmark's in-memory span recorder.
//
// Spans wrap the benchmark's own calls into each layer of the program
// (decode, scheduling, validation, seam planning, the admin plane, ...).
// Recording is off unless enabled for a traced run; a disabled Span costs
// one relaxed load. Spans nest per thread, so a span's self time is its
// duration minus the time its child spans cover; both are aggregated per
// span name as spans close. The raw spans (up to a cap) are kept for a
// Chrome trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Monotonic nanoseconds (CLOCK_MONOTONIC, shared with the server process).
std::int64_t now_ns() noexcept;

/// Scoped span; `name` must outlive the process (a string literal).
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
};

struct Totals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per-name totals over every thread. Call once all spans are closed.
std::map<std::string, Totals> totals();

/// Writes the recorded spans as Chrome trace_event JSON.
void write_chrome_trace(const std::string& path);

}  // namespace perfbench::spans
