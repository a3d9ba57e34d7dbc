// air_server.hpp — the live broadcast server: a scheduled program on air.
//
// AirServer walks a BroadcastProgram cycle slot-by-slot on a drift-free
// slot clock and multicasts each slot's per-channel page frames to every
// subscribed TCP session (net/framing wire format). It is built from three
// parts, each hiding one decision the server itself no longer knows:
//  - plan_generation (generation.hpp), how the program that goes on air is
//    built: schedule, validate, seam-plan;
//  - LoopShard (loop_shard.hpp), one per-core epoll loop's sessions:
//    accept, decode, fan-out, the io_uring-or-sendmsg flush, eviction;
//  - the request plane (pull_plane.hpp): per-session pending kReq
//    requests and, on loop 0, the pull picks and kPull frames.
//
// What stays here is the lifecycle, the slot tick, generation activation,
// the hot-swap worker, routing between loops, and the admin plane. Loop 0
// is the airing plane and the single writer for program state. Every slot,
// whatever the loop count, it encodes the slot's page frames once into one
// buffer, ships it as a refcounted token, delivers it to its own sessions
// inline and post()s it to the other loops, which fan the shared buffer
// into their sessions — per-slot server cost is O(subscribed channels) in
// encodes and O(sessions/loops) queue appends per loop, independent of
// audience-times-bytes. SO_REUSEPORT clones the listener so the kernel
// spreads accepted connections across loops. Hot swap requests and pull
// demand from sessions on other loops are forwarded to loop 0 the same way.
// The token names its generation, and the activation slot's token carries
// the announce, so what crosses loops is tokens, never state (DESIGN.md §7
// "loop-per-core ownership").
//
// Hot program swap: any session may send a kSwap frame carrying a new
// workload. A worker thread, OFF the event loop threads, plans the next
// generation through plan_generation (generation.hpp), the one function
// start-up uses too: schedule, validate, and pick the airing rotation that
// best preserves outstanding deadline promises. Start-up airs an invalid
// program with a warning; a swap refuses one. An accepted generation
// activates at the next major-cycle boundary and is announced to every
// session (DESIGN.md §7 gives the seam argument).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"
#include "net/event_loop.hpp"
#include "net/http_admin.hpp"
#include "net/loop_group.hpp"
#include "net/slot_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/watchdog.hpp"
#include "server/generation.hpp"
#include "server/loop_shard.hpp"
#include "server/pull_plane.hpp"

namespace tcsa {

struct AirServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;       ///< 0 = kernel-assigned ephemeral port
  SlotCount channels = 0;       ///< 0 = Theorem 3.1 minimum for the workload
  /// Scheduling method; unset = SUSC/PAMAD via choose_schedule.
  std::optional<Method> method;
  std::uint32_t slot_us = 1000;    ///< real-time length of one slot
  std::uint64_t max_slots = 0;     ///< stop after airing this many (0 = run)
  std::size_t max_session_buffer = 256 * 1024;  ///< eviction threshold
  int session_send_buffer = 0;  ///< SO_SNDBUF per session; 0 = default
  std::size_t loops = 1;        ///< per-core I/O loops (1 = classic single)

  // --- pull plane (hybrid push/pull) ---
  /// On-demand airings per slot on top of the broadcast program. 0 keeps
  /// the classic push-only server: kReq frames are acked for tracing but
  /// schedule nothing. With N > 0, loop 0 owns a per-page demand table;
  /// each slot it pops up to N pages by `pull_policy` and airs them as
  /// kPull frames to every session with a pending request for the page.
  std::size_t pull_channels = 0;
  PullPolicy pull_policy = PullPolicy::kLongestWaitFirst;

  // --- telemetry plane ---
  /// HTTP admin port on bind_address; 0 = ephemeral, -1 = off.
  int admin_port = -1;
  double slo_breach_us = 0.0;   ///< slot-lag SLO (us); <= 0 = no breach check
  /// Install SIGINT/SIGTERM handlers for the lifetime of run() (self-pipe
  /// into loop 0) so an interrupted server still goes off air cleanly.
  /// Process-global — one signal-handling AirServer per process.
  bool install_signal_handlers = false;

  // --- request tracing ---
  /// Flight-recorder ring path (obs::FlightRecorder). Empty = off. When
  /// set, run() opens the ring, installs the SIGQUIT/fatal-signal sealers,
  /// and every request-journey event lands in the file as it happens — a
  /// SIGKILL'd server still leaves its black box behind.
  std::string flight_out;
};

/// The broadcast server. Construction schedules the initial program and
/// binds the listener shards (so port() is valid before run()); run() airs
/// slots until stop(), max_slots, or destruction.
class AirServer {
 public:
  AirServer(Workload workload, AirServerConfig config);
  ~AirServer();
  AirServer(const AirServer&) = delete;
  AirServer& operator=(const AirServer&) = delete;

  /// Actual listening port (resolves an ephemeral bind). With loops > 1
  /// every listener shard shares this one port via SO_REUSEPORT.
  std::uint16_t port() const noexcept { return port_; }

  /// Admin endpoint port (resolves an ephemeral bind); 0 when disabled.
  std::uint16_t admin_port() const noexcept {
    return admin_ ? admin_->port() : 0;
  }

  /// Channel count the program airs on.
  SlotCount channels() const noexcept { return channels_; }

  /// Airs the program. Blocks until stop() or max_slots; drives loop 0
  /// inline, spawns one thread per additional loop, and flushes and closes
  /// every session before returning.
  void run();

  /// Requests shutdown. Safe from any thread.
  void stop();

  // --- cross-thread introspection (tests, health probes) ---
  std::uint64_t slots_aired() const noexcept {
    return slots_aired_.load(std::memory_order_relaxed);
  }
  std::uint32_t generation() const noexcept {
    return generation_id_.load(std::memory_order_relaxed);
  }
  std::uint64_t sessions_evicted() const noexcept {
    return common_.evicted.load(std::memory_order_relaxed);
  }
  std::size_t loops() const noexcept { return loop_count_; }
  /// Live session count per loop shard (index = loop).
  std::vector<std::size_t> sessions_per_loop() const;

  /// True when slot-fanout flushes ride io_uring (resolved at startup by
  /// the runtime probe; sendmsg otherwise).
  bool uring_active() const noexcept { return uring_active_; }

 private:
  void on_timer();
  void air_slot();
  /// Puts the pending generation on air when next_slot_ is its boundary;
  /// true when it did.
  bool maybe_activate_swap();
  /// The next major-cycle boundary of the generation on air, where a
  /// pending swap activates (exact: slots advance deterministically).
  std::uint64_t next_cycle_boundary() const;
  /// Runs `fn` on loop `to`, called from loop `from`'s thread: inline when
  /// they are the same loop, else through the target loop's post().
  void route(std::size_t from, std::size_t to, std::function<void()> fn);
  /// Runs on loop 0 only (other loops forward via post()).
  /// Loop 0 checks only the cheap header fields; the workload is decoded
  /// on the swap worker, so no payload can stall the airing loop. One swap
  /// at a time: a request while another is scheduling or waits for its
  /// boundary is rejected, since it would be planned against the program
  /// that is about to leave the air.
  void handle_swap_request(SessionRef requester, std::string payload);
  /// Sends a kSwapReply to a session wherever it lives; dropped silently
  /// if the session is gone.
  void send_swap_reply(const SessionRef& ref, const net::SwapReplyMsg& msg);
  /// Registers the /metrics, /metrics.json, /healthz and /slots handlers.
  /// All run on loop 0 next to the airing path, so they may read loop-0
  /// state (clock_, next_slot_) without locks — and must stay snapshot
  /// cheap, since they share the thread with the slot timer.
  void setup_admin_routes();
  std::string healthz_json() const;
  /// Appends this slot's record to the timeline, then lets the watchdog
  /// check it.
  void note_slot_aired(std::uint64_t lag_us, std::uint64_t aired_mask);
  void install_signal_pipe();
  void remove_signal_pipe();

  AirServerConfig config_;
  SlotCount channels_ = 0;
  std::uint16_t port_ = 0;
  std::size_t loop_count_ = 1;

  ShardCommon common_;  // outlives shards_
  std::unique_ptr<net::LoopGroup> group_;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  net::TimerFd timer_;
  std::unique_ptr<net::SlotClock> clock_;  // built in run(): epoch = on-air

  // --- telemetry plane ---
  std::unique_ptr<net::HttpAdmin> admin_;  // null when admin_port < 0
  obs::SlotTimeline timeline_;             // the /slots ring
  obs::SloWatchdog watchdog_;              // loop 0 only
  std::uint64_t last_timeline_bytes_ = 0;  // loop-0-only delta base
  net::Fd signal_rd_;                      // self-pipe read end (loop 0)
  net::Fd signal_wr_;

  // --- loop-0-only program state (single writer) ---
  // On air; shared read-only with the swap worker and, through the slot
  // tokens, with every shard.
  std::shared_ptr<const Generation> current_;
  std::shared_ptr<Generation> pending_;   // activates at the next boundary
  std::uint64_t next_slot_ = 0;           // next global slot to air
  bool running_ = false;
  PullPlane pull_;

  // Hot-swap worker: one reschedule in flight at a time.
  std::thread swap_worker_;
  bool swap_inflight_ = false;
  SessionRef swap_requester_;

  obs::MetricId uptime_gauge_ = 0;     // tcsa_uptime_seconds
  obs::MetricId build_info_gauge_ = 0; // tcsa_build_info (labeled, value 1)
  std::uint64_t on_air_epoch_us_ = 0;  // clock_->now_us() when airing began

  bool uring_active_ = false;  // resolved at construction, then read-only
  std::atomic<std::uint32_t> generation_id_{0};
  std::atomic<std::uint64_t> slots_aired_{0};  // == next_slot_, any thread
};

}  // namespace tcsa
