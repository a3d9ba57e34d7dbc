// trace.hpp — scoped-span tracing that exports Chrome trace_event JSON.
//
// `TCSA_TRACE_SPAN("opt.subtree")` opens an RAII span; when tracing is
// enabled its duration lands in the calling thread's ring buffer (fixed
// capacity, oldest events overwritten) and `write_chrome_trace` flushes
// every thread's ring as a `{"traceEvents": [...]}` document that
// chrome://tracing and Perfetto load directly — OPT subtree tasks,
// placement, and simulator batches show up as blocks on per-thread tracks.
//
// A trace document describes itself: its top-level "otherData" is the
// TraceOrigin of the process that wrote it (command, host, pid, the wall
// clock of its trace epoch, and a client's measured clock offset).
// `merge_chrome_traces` reads that back to fold a server's and its
// clients' documents onto one timeline; this module is the only place that
// knows the format.
//
// Span names must be string literals (or otherwise outlive the trace): the
// ring stores the pointer, never a copy, so recording a span is two clock
// reads and one ring write, and zero heap traffic. While tracing is
// disabled a span is one relaxed atomic load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tcsa::obs {

/// Runtime switch, independent of the metrics switch (tracing costs more,
/// so callers usually enable it for one run at a time).
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Microseconds since the process-wide trace epoch (first clock use).
std::uint64_t trace_now_us() noexcept;

/// Wall-clock time (microseconds since the Unix epoch) of the moment the
/// trace epoch was captured. Cross-process trace merges align each
/// process's steady-clock timeline onto a shared axis by offsetting with
/// this value (recorded in the process's trace document).
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

/// Who wrote a trace document, and when its clock started: the document's
/// "otherData" object.
struct TraceOrigin {
  std::string command;              ///< producing command, e.g. "serve"
  std::string hostname;
  std::int64_t os_pid = 0;
  std::uint64_t wall_epoch_us = 0;  ///< trace_epoch_wall_us() of the writer
  /// A client's measured (server trace clock − own trace clock), from
  /// obs::ClockOffsetEstimator; read only when clock_samples > 0.
  std::int64_t clock_offset_us = 0;
  std::uint64_t clock_samples = 0;
};

/// This process under `command`: its hostname, pid and trace epoch, with no
/// measured clock offset.
TraceOrigin this_process(std::string command);

/// Appends all buffered events, across threads, in ascending start order,
/// to `out` as a Chrome trace_event JSON document whose "otherData" is
/// `origin`. Does not clear the buffers.
void write_chrome_trace(std::string& out, const TraceOrigin& origin);

/// The origin a write_chrome_trace document carries. Throws
/// std::invalid_argument naming `source` when the document is not a trace
/// or has no complete "otherData".
TraceOrigin read_trace_origin(const std::string& trace_json,
                              const std::string& source);

/// One process's trace document and where it came from (for errors).
struct TraceFile {
  std::string source;  ///< e.g. the file's path
  std::string json;    ///< a write_chrome_trace document
};

struct MergedTrace {
  std::string json;                 ///< one Chrome trace_event document
  std::size_t clock_corrected = 0;  ///< traces placed by a measured offset
};

/// Folds several processes' trace documents onto one timeline. The
/// reference is the "serve" process (the first document if none is): it
/// gets pid 1 and the others pids 2, 3, … in argument order, each with a
/// process_name record "<command> · <host> pid <os pid>". Timestamps shift
/// onto the earliest wall epoch: by the difference of wall epochs, or, for
/// a document carrying a measured clock offset, by that offset from the
/// reference's clock. Shifted timestamps clamp at 0. Events keep their
/// names, tids and args.
MergedTrace merge_chrome_traces(const std::vector<TraceFile>& traces);

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
