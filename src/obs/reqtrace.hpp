// reqtrace.hpp — per-request journey events and a crash-safe flight
// recorder.
//
// The paper's contract is per-request: a page requested at time t must air
// within its promised wait. PR 7 gave the server aggregate lenses (slot
// timeline, SLO watchdog); this layer follows ONE request across both
// processes. Every page request carries a 64-bit trace id minted by the
// client; both sides call `req_event(id, stage, t, arg)` at each stage of
// the journey and the event fans out to up to three sinks:
//
//   1. the Chrome trace ring (trace.hpp) as an instant span named after the
//      stage with the trace id as its argument — `tcsactl trace merge`
//      later fuses client and server rings into one clock-aligned timeline;
//   2. the flight recorder, when open: a preallocated file-backed mmap ring
//      of the most recent events. Because the mapping is MAP_SHARED, every
//      record is durable in the page cache the moment it is written — a
//      SIGKILL'd (or OOM-killed, or wedged-and-shot) server leaves a
//      readable black box behind with no cooperation from the dying
//      process. A fatal-signal handler and SIGQUIT additionally seal the
//      header so postmortems know the ring stopped on purpose;
//   3. nothing else — delay/slack *statistics* go through registry
//      histograms, owned by whoever can compute the delay (the client knows
//      deadlines, the server knows service time).
//
// Stage taxonomy (DESIGN.md §6 mirrors this list):
//   client.req.sent        kReq frame handed to the socket           (t0)
//   client.req.acked       kReqAck received; clock sample folded     (t3)
//   client.req.first_byte  first frame of the requested page arrives
//   client.req.decoded     that frame parsed and accounted
//   client.req.done        journey closed; arg = signed slack in us
//                          (negative slack = deadline missed)
//   server.req.recv        kReq parsed on the owning loop            (t1)
//   server.req.sched       kReqAck queued; arg = its next_slot       (t2)
//   server.req.encoded     the slot airing the page was encoded (or
//                          cache-patched) with this request pending
//   server.req.flushed     that slot's bytes pushed to this session's
//                          socket; arg = bytes still queued behind it
//   server.req.pull_aired  the pull scheduler picked this request's page
//                          for an on-demand kPull airing; arg = the
//                          airing's coalescing factor (waiters satisfied)
//
// Writing one event is a handful of relaxed stores (~timeline-record cost,
// benched by bench/micro_reqtrace).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tcsa::obs {

/// Stages of a request journey. Client stages are 1..15, server stages
/// 16..31; the numeric values are part of the flight-recorder file format.
enum class ReqStage : std::uint32_t {
  kClientSent = 1,
  kClientAcked = 2,
  kClientFirstByte = 3,
  kClientDecoded = 4,
  kClientDone = 5,
  kServerRecv = 16,
  kServerSched = 17,
  kServerEncoded = 18,
  kServerFlushed = 19,
  kServerPullAired = 20,
};

/// Stable span name for a stage ("client.req.sent", ...); "req.unknown"
/// for values outside the taxonomy (a corrupt flight record, typically).
const char* req_stage_name(ReqStage stage) noexcept;

/// Mints a process-unique nonzero trace id: pid in the high bits, a
/// monotonic counter in the low 40. Two concurrent clients on one host
/// therefore never collide.
std::uint64_t mint_trace_id() noexcept;

// ---------------------------------------------------------------- flight

namespace detail {

// Flight-recorder file format (version 1):
//
// byte 0   u64  magic "TCSAFLT1"
// byte 8   u32  version (1)
// byte 12  u32  capacity (records; always a power of two)
// byte 16  u64  head — total records ever claimed (atomic in the writer)
// byte 24  u64  wall epoch (us since Unix epoch) of the recording process
// byte 32  u64  sealed flag (0 live, 1 sealed by close()/signal)
// byte 40  24 reserved bytes, then `capacity` 48-byte cells.
//
// Every field a concurrent writer touches is a relaxed/release atomic so
// the recorder is clean under TSan; the loader reads a dead file, so it
// parses plain bytes at these offsets instead. The structs live in the
// header only so record() can inline into the request hot path; they are
// file-format ABI, not API — touch nothing outside this library.
constexpr std::uint64_t kFlightMagic = 0x31544C4641534354ull;  // "TCSAFLT1"
constexpr std::uint32_t kFlightVersion = 1;

struct FlightHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t capacity;
  std::atomic<std::uint64_t> head;
  std::uint64_t wall_epoch_us;
  std::atomic<std::uint64_t> sealed;
  std::uint64_t reserved[3];
};
static_assert(sizeof(FlightHeader) == 64, "flight header layout is ABI");
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "mmap'd atomics must not widen their field");

// One ring cell, committed seqlock-style: ordinal_open is stored before
// the payload and ordinal_commit (release) after it. A replay accepts a
// cell only when both match the ordinal its ring position implies, so a
// write torn by SIGKILL — or a lapped writer racing the claim — yields a
// dropped record, never a wrong one.
struct FlightCell {
  std::atomic<std::uint64_t> ordinal_open;
  std::atomic<std::uint64_t> trace_id;
  std::atomic<std::uint64_t> t_us;
  std::atomic<std::uint64_t> arg;
  std::atomic<std::uint32_t> stage;
  std::uint32_t pad;
  std::atomic<std::uint64_t> ordinal_commit;
};
static_assert(sizeof(FlightCell) == 48, "flight cell layout is ABI");

}  // namespace detail

/// One replayed flight-recorder event.
struct FlightEvent {
  std::uint64_t ordinal = 0;  ///< 1-based global write index (gap-free when
                              ///< no records were lost to wrap or tearing)
  std::uint64_t trace_id = 0;
  std::uint64_t t_us = 0;  ///< trace_now_us() in the recording process
  std::uint64_t arg = 0;
  std::uint32_t stage = 0;  ///< ReqStage numeric value
};

/// Crash-safe ring of recent request events, preallocated in a MAP_SHARED
/// file mapping. Multi-writer lock-free: writers claim a slot with one
/// fetch_add and commit it seqlock-style (the slot's ordinal is written
/// before and after the payload; a torn record fails the match and is
/// dropped at replay). The process-global instance is closed until
/// `serve --flight-out` (or a test) opens it.
class FlightRecorder {
 public:
  static FlightRecorder& instance() noexcept;

  FlightRecorder() = default;
  ~FlightRecorder() { close(); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Creates (truncating) `path` and maps a ring of `capacity` records;
  /// capacity is rounded up to the next power of two so record() indexes
  /// with a mask instead of a divide. Returns false with the reason in
  /// errno-style `error()` on failure.
  bool open(const std::string& path, std::uint32_t capacity);
  void close() noexcept;
  bool is_open() const noexcept {
    return map_.load(std::memory_order_acquire) != nullptr;
  }

  /// Appends one event. Lock-free, async-signal-safe, and a no-op while
  /// closed; safe to call from any thread. Inline: this is the request
  /// hot path's per-event cost, benched (bench/micro_reqtrace) against the
  /// slot timeline's write.
  void record(std::uint64_t trace_id, ReqStage stage, std::uint64_t t_us,
              std::uint64_t arg) noexcept {
    unsigned char* base = map_.load(std::memory_order_acquire);
    if (base == nullptr) return;
    auto* hdr = reinterpret_cast<detail::FlightHeader*>(base);
    const std::uint64_t idx =
        hdr->head.fetch_add(1, std::memory_order_relaxed);
    auto* cells =
        reinterpret_cast<detail::FlightCell*>(base + sizeof(detail::FlightHeader));
    detail::FlightCell& cell = cells[idx & (capacity_ - 1)];
    const std::uint64_t ordinal = idx + 1;
    cell.ordinal_open.store(ordinal, std::memory_order_relaxed);
    cell.trace_id.store(trace_id, std::memory_order_relaxed);
    cell.t_us.store(t_us, std::memory_order_relaxed);
    cell.arg.store(arg, std::memory_order_relaxed);
    cell.stage.store(static_cast<std::uint32_t>(stage),
                     std::memory_order_relaxed);
    cell.ordinal_commit.store(ordinal, std::memory_order_release);
  }

  /// Marks the header sealed and schedules writeback. Async-signal-safe;
  /// called by the fatal-signal/SIGQUIT handlers and by close().
  void seal() noexcept;

  /// Total records ever written to the open ring (0 while closed).
  std::uint64_t recorded() const noexcept;

  const std::string& error() const noexcept { return error_; }

 private:
  std::atomic<unsigned char*> map_{nullptr};
  std::size_t map_bytes_ = 0;
  std::uint32_t capacity_ = 0;
  int fd_ = -1;
  std::string error_;
};

/// Installs handlers on the process-global recorder: SIGQUIT seals the
/// ring on demand (process keeps running); SIGSEGV/SIGBUS/SIGFPE/SIGILL/
/// SIGABRT seal it and re-raise with the default disposition so the crash
/// still crashes. Idempotent. Coexists with the server's SIGINT/SIGTERM
/// self-pipe (disjoint signal sets).
void flight_install_signal_handlers();

/// Replays a flight-recorder file: the surviving records in write order
/// (oldest first), torn or overwritten cells dropped. `sealed` reports
/// whether the writer sealed the header before the file was read. Throws
/// std::runtime_error on a missing/short/foreign file.
std::vector<FlightEvent> flight_load(const std::string& path,
                                     bool* sealed = nullptr);

// ------------------------------------------------------------- req_event

/// Fans one journey event out to the flight recorder (when open) and the
/// Chrome trace ring (when tracing is enabled). `t_us` is trace_now_us().
/// Inline so the both-sinks-idle case costs one load and two branches.
inline void req_event(std::uint64_t trace_id, ReqStage stage,
                      std::uint64_t t_us, std::uint64_t arg = 0) noexcept {
  FlightRecorder::instance().record(trace_id, stage, t_us, arg);
  if (tracing_enabled())
    record_span(req_stage_name(stage), t_us, 0, "trace_id", trace_id);
}
#define TCSA_REQ_EVENT(id, stage, t, arg) \
  ::tcsa::obs::req_event((id), (stage), (t), (arg))

}  // namespace tcsa::obs
