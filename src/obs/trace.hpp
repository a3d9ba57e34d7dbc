// trace.hpp — scoped-span tracing that exports Chrome trace_event JSON.
//
// `TCSA_TRACE_SPAN("opt.subtree")` opens an RAII span; when tracing is
// enabled its duration lands in the calling thread's ring buffer (fixed
// capacity, oldest events overwritten) and `write_chrome_trace` flushes
// every thread's ring as a `{"traceEvents": [...]}` document that
// chrome://tracing and Perfetto load directly — OPT subtree tasks,
// placement, and simulator batches show up as blocks on per-thread tracks.
//
// Span names must be string literals (or otherwise outlive the trace): the
// ring stores the pointer, never a copy, so recording a span is two clock
// reads and one ring write, and zero heap traffic. While tracing is
// disabled a span is one relaxed atomic load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace tcsa::obs {

/// Runtime switch, independent of the metrics switch (tracing costs more,
/// so callers usually enable it for one run at a time).
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Microseconds since the process-wide trace epoch (first clock use).
std::uint64_t trace_now_us() noexcept;

/// Wall-clock time (microseconds since the Unix epoch) of the moment the
/// trace epoch was captured. Cross-process trace merges align each shard's
/// steady-clock timeline onto a shared axis by offsetting with this value
/// (recorded in the shard's run manifest).
std::uint64_t trace_epoch_wall_us() noexcept;

/// Per-thread ring capacity in events: recording more spans than this on one
/// thread overwrites the oldest (counted by tcsa_trace_spans_dropped_total).
std::size_t trace_ring_capacity() noexcept;

/// Spans lost to ring overwrites since process start (or clear_trace()).
/// Also exported as the tcsa_trace_spans_dropped_total counter, recorded
/// even while metrics are disabled, so a merged trace advertises whether
/// any shard's timeline is incomplete.
std::uint64_t trace_spans_dropped() noexcept;

/// Records one complete span ("ph":"X"). `arg_name` may be nullptr for a
/// span without arguments; when set, both it and `name` must outlive the
/// trace buffer (string literals in practice).
void record_span(const char* name, std::uint64_t start_us,
                 std::uint64_t duration_us, const char* arg_name = nullptr,
                 std::uint64_t arg_value = 0) noexcept;

/// Appends all buffered events, across threads, in ascending start order,
/// to `out` as a Chrome trace_event JSON document. Does not clear the
/// buffers.
void write_chrome_trace(std::string& out);

/// Drops every buffered event (tests; between runs).
void clear_trace();

/// Number of currently buffered events across all threads.
std::size_t trace_event_count();

/// RAII span: samples the clock on construction and records on destruction.
/// Inactive (two no-op calls) when tracing is disabled at construction.
class SpanTimer {
 public:
  explicit SpanTimer(const char* name) noexcept
      : name_(name), active_(tracing_enabled()) {
    if (active_) start_ = trace_now_us();
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() {
    if (active_)
      record_span(name_, start_, trace_now_us() - start_, arg_name_, arg_);
  }

  /// Attaches one numeric argument shown in the trace viewer's detail pane.
  void set_arg(const char* arg_name, std::uint64_t value) noexcept {
    arg_name_ = arg_name;
    arg_ = value;
  }

  bool active() const noexcept { return active_; }

 private:
  const char* name_;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t start_ = 0;
  bool active_;
};

}  // namespace tcsa::obs

#define TCSA_TRACE_CONCAT_INNER(a, b) a##b
#define TCSA_TRACE_CONCAT(a, b) TCSA_TRACE_CONCAT_INNER(a, b)
/// Scoped span covering the rest of the enclosing block.
#define TCSA_TRACE_SPAN(name) \
  ::tcsa::obs::SpanTimer TCSA_TRACE_CONCAT(tcsa_trace_span_, __LINE__)(name)
/// Scoped span bound to a local variable so the site can set_arg on it.
#define TCSA_TRACE_SPAN_VAR(var, name) ::tcsa::obs::SpanTimer var(name)
