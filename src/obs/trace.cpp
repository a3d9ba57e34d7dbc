#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace tcsa::obs {
namespace {

std::atomic<bool> g_tracing{false};

/// Spans lost to ring overwrites. Mirrored into the registry as
/// tcsa_trace_spans_dropped_total via the always-counted path, so the loss
/// is visible both in-process (merge validation) and in exported snapshots
/// even when metrics recording is off.
std::atomic<std::uint64_t> g_spans_dropped{0};

MetricId spans_dropped_metric() {
  static const MetricId id = register_counter(
      "tcsa_trace_spans_dropped_total",
      "Trace spans overwritten by per-thread ring overflow (always counted)");
  return id;
}

void note_span_dropped() noexcept {
  g_spans_dropped.fetch_add(1, std::memory_order_relaxed);
  counter_add_always(spans_dropped_metric(), 1);
}

/// One buffered event. Name/arg_name point at string literals (see header).
struct Event {
  const char* name = nullptr;
  const char* arg_name = nullptr;
  std::uint64_t arg = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint32_t tid = 0;
};

constexpr std::size_t kRingCapacity = 1 << 14;  ///< events kept per thread

/// Per-thread ring. The owning thread appends; the flush thread copies.
/// A plain mutex per ring keeps both sides trivially race-free — the lock
/// is thread-private in steady state, so it is uncontended and cheap, and
/// tracing is an opt-in diagnostic mode anyway.
struct Ring {
  std::mutex mutex;
  std::vector<Event> events;  ///< ring storage, grown up to capacity
  std::size_t head = 0;       ///< next write position once full
  std::uint32_t tid = 0;

  void push(const Event& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (events.size() < kRingCapacity) {
      events.push_back(event);
      return;
    }
    events[head] = event;  // overwrite oldest
    head = (head + 1) % kRingCapacity;
    note_span_dropped();
  }
};

class TraceBuffer {
 public:
  static TraceBuffer& instance() {
    // Leaked for the same reason as the metrics Registry: ring retirement
    // from thread_local destructors must stay valid during process exit.
    static TraceBuffer* buffer = new TraceBuffer;
    return *buffer;
  }

  Ring& local_ring() {
    struct Handle {
      Ring* ring = nullptr;
      ~Handle() {
        if (ring != nullptr) TraceBuffer::instance().retire(ring);
      }
    };
    thread_local Handle handle;
    if (handle.ring == nullptr) handle.ring = adopt_ring();
    return *handle.ring;
  }

  std::vector<Event> collect() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Event> all = retired_;
    for (const std::unique_ptr<Ring>& ring : live_) {
      const std::lock_guard<std::mutex> ring_lock(ring->mutex);
      all.insert(all.end(), ring->events.begin(), ring->events.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& a, const Event& b) {
                       return a.start_us < b.start_us;
                     });
    return all;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    retired_.clear();
    for (const std::unique_ptr<Ring>& ring : live_) {
      const std::lock_guard<std::mutex> ring_lock(ring->mutex);
      ring->events.clear();
      ring->head = 0;
    }
  }

 private:
  Ring* adopt_ring() {
    auto ring = std::make_unique<Ring>();
    Ring* raw = ring.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    raw->tid = next_tid_++;
    live_.push_back(std::move(ring));
    return raw;
  }

  /// Folds an exiting thread's events into the retired list (bounded: the
  /// retired list keeps at most kRetiredCapacity most-recent events) and
  /// frees the ring, so pool workers never accumulate rings.
  void retire(Ring* ring) {
    constexpr std::size_t kRetiredCapacity = 1 << 16;
    const std::lock_guard<std::mutex> lock(mutex_);
    retired_.insert(retired_.end(), ring->events.begin(), ring->events.end());
    if (retired_.size() > kRetiredCapacity)
      retired_.erase(retired_.begin(),
                     retired_.end() -
                         static_cast<std::ptrdiff_t>(kRetiredCapacity));
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [&](const std::unique_ptr<Ring>& owned) {
                                 return owned.get() == ring;
                               }),
                live_.end());
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Ring>> live_;
  std::vector<Event> retired_;
  std::uint32_t next_tid_ = 1;
};

}  // namespace

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

namespace {

/// One process-wide epoch so timestamps from every thread share an origin.
/// The wall-clock reading taken at the same instant anchors this process's
/// steady timeline to an absolute axis for cross-process merges.
struct TraceEpoch {
  std::chrono::steady_clock::time_point steady;
  std::uint64_t wall_us;
};

const TraceEpoch& trace_epoch() noexcept {
  static const TraceEpoch epoch = [] {
    TraceEpoch e;
    e.steady = std::chrono::steady_clock::now();
    e.wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return e;
  }();
  return epoch;
}

}  // namespace

std::uint64_t trace_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch().steady)
          .count());
}

std::uint64_t trace_epoch_wall_us() noexcept { return trace_epoch().wall_us; }

std::size_t trace_ring_capacity() noexcept { return kRingCapacity; }

std::uint64_t trace_spans_dropped() noexcept {
  return g_spans_dropped.load(std::memory_order_relaxed);
}

void record_span(const char* name, std::uint64_t start_us,
                 std::uint64_t duration_us, const char* arg_name,
                 std::uint64_t arg_value) noexcept {
  Ring& ring = TraceBuffer::instance().local_ring();
  Event event;
  event.name = name;
  event.arg_name = arg_name;
  event.arg = arg_value;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.tid = ring.tid;
  ring.push(event);
}

TraceOrigin this_process(std::string command) {
  TraceOrigin origin;
  origin.command = std::move(command);
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0) origin.hostname = host;
  origin.os_pid = static_cast<std::int64_t>(::getpid());
  origin.wall_epoch_us = trace_epoch_wall_us();
  return origin;
}

void write_chrome_trace(std::string& out, const TraceOrigin& origin) {
  const std::vector<Event> events = TraceBuffer::instance().collect();
  out += "{\"traceEvents\": [";
  bool first = true;
  for (const Event& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    out += event.name;
    out += "\", \"ph\": \"X\", \"cat\": \"tcsa\", \"pid\": 1, \"tid\": ";
    out += std::to_string(event.tid);
    out += ", \"ts\": ";
    out += std::to_string(event.start_us);
    out += ", \"dur\": ";
    out += std::to_string(event.duration_us);
    if (event.arg_name != nullptr) {
      out += ", \"args\": {\"";
      out += event.arg_name;
      out += "\": ";
      out += std::to_string(event.arg);
      out += '}';
    }
    out += '}';
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"command\": \"";
  out += json_escape(origin.command);
  out += "\", \"hostname\": \"";
  out += json_escape(origin.hostname);
  out += "\", \"os_pid\": ";
  out += std::to_string(origin.os_pid);
  out += ", \"wall_epoch_us\": ";
  out += std::to_string(origin.wall_epoch_us);
  out += ", \"clock_offset_us\": ";
  out += std::to_string(origin.clock_offset_us);
  out += ", \"clock_samples\": ";
  out += std::to_string(origin.clock_samples);
  out += "}}\n";
}

namespace {

/// One parsed trace document and the origin it carries.
struct Process {
  JsonValue doc;
  TraceOrigin origin;
};

/// Parses a write_chrome_trace document; every error names `source`.
Process parse_trace(const std::string& trace_json, const std::string& source) {
  try {
    Process p{json_parse(trace_json), {}};
    const JsonValue* other = p.doc.expect_object("trace document")
                                 .find("otherData");
    if (other == nullptr)
      throw std::invalid_argument("trace has no \"otherData\" origin");
    const JsonValue& o = other->expect_object("otherData");
    p.origin.command = o.at("command").expect_string("command");
    p.origin.hostname = o.at("hostname").expect_string("hostname");
    p.origin.os_pid = o.at("os_pid").expect_int("os_pid");
    p.origin.wall_epoch_us = o.at("wall_epoch_us").expect_uint("wall_epoch_us");
    p.origin.clock_offset_us =
        o.at("clock_offset_us").expect_int("clock_offset_us");
    p.origin.clock_samples = o.at("clock_samples").expect_uint("clock_samples");
    return p;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(source + ": " + e.what());
  }
}

}  // namespace

TraceOrigin read_trace_origin(const std::string& trace_json,
                              const std::string& source) {
  return parse_trace(trace_json, source).origin;
}

MergedTrace merge_chrome_traces(const std::vector<TraceFile>& traces) {
  TCSA_REQUIRE(!traces.empty(), "merge_chrome_traces: no traces");
  std::vector<Process> processes;
  for (const TraceFile& trace : traces)
    processes.push_back(parse_trace(trace.json, trace.source));
  // The server is the clock reference (measured offsets are towards its
  // clock), so its timeline comes first; the rest keep argument order.
  const auto server = std::find_if(
      processes.begin(), processes.end(),
      [](const Process& p) { return p.origin.command == "serve"; });
  if (server != processes.end())
    std::rotate(processes.begin(), server, server + 1);
  const std::uint64_t reference_wall = processes.front().origin.wall_epoch_us;
  std::uint64_t base_wall = reference_wall;
  for (const Process& p : processes)
    base_wall = std::min(base_wall, p.origin.wall_epoch_us);

  MergedTrace merged;
  struct MergedEvent {
    std::uint64_t ts = 0;
    std::string json;
  };
  std::vector<MergedEvent> events;
  std::string metadata;
  for (std::size_t position = 0; position < processes.size(); ++position) {
    const TraceOrigin& origin = processes[position].origin;
    // Onto the earliest wall epoch. A measured offset is to the
    // reference's trace clock, which sits reference_wall - base_wall
    // into the merged axis; the wall clocks alone agree only as well as
    // two system clocks do. Signed: a process whose clock runs ahead
    // shifts backwards, clamped at the merged origin.
    std::int64_t shift =
        static_cast<std::int64_t>(origin.wall_epoch_us - base_wall);
    if (position > 0 && origin.clock_samples > 0) {
      shift = origin.clock_offset_us +
              static_cast<std::int64_t>(reference_wall - base_wall);
      ++merged.clock_corrected;
    }
    // Every process wrote pid 1: re-key by position, collision-free.
    const std::int64_t pid = static_cast<std::int64_t>(position) + 1;

    // Perfetto/chrome://tracing shows this as the process title.
    metadata += "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
                std::to_string(pid) +
                ", \"tid\": 0, \"args\": {\"name\": \"" +
                json_escape(origin.command) + " · " +
                json_escape(origin.hostname) + " pid " +
                std::to_string(origin.os_pid) + "\"}},\n";

    for (const JsonValue& raw : processes[position]
                                    .doc.at("traceEvents")
                                    .expect_array("traceEvents")
                                    .array) {
      JsonValue event = raw.expect_object("trace event");
      const std::int64_t shifted =
          static_cast<std::int64_t>(event.at("ts").expect_uint("event ts")) +
          shift;
      const std::uint64_t ts =
          shifted < 0 ? 0 : static_cast<std::uint64_t>(shifted);
      bool saw_pid = false;
      for (auto& [key, member] : event.object) {
        if (key == "ts") {
          member.is_uint = true;
          member.uint_value = ts;
          member.number = static_cast<double>(ts);
        } else if (key == "pid") {
          member.is_uint = true;
          member.uint_value = static_cast<std::uint64_t>(pid);
          member.number = static_cast<double>(pid);
          saw_pid = true;
        }
      }
      TCSA_REQUIRE(saw_pid, "merge_chrome_traces: event without pid");
      events.push_back({ts, "  " + json_serialize(event)});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.ts < b.ts;
                   });

  std::string& out = merged.json;
  out = "{\"traceEvents\": [\n";
  out += metadata;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i].json;
    out += i + 1 == events.size() ? "\n" : ",\n";
  }
  if (events.empty()) {
    // Trim the trailing ",\n" the metadata loop appended.
    out.erase(out.size() - 2);
    out += "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return merged;
}

void clear_trace() {
  TraceBuffer::instance().clear();
  // The in-process drop count scopes to the buffered timeline being
  // discarded; the registry counter stays cumulative like every counter.
  g_spans_dropped.store(0, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  return TraceBuffer::instance().collect().size();
}

}  // namespace tcsa::obs
