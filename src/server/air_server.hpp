// air_server.hpp — the live broadcast server: a scheduled program on air.
//
// AirServer walks a BroadcastProgram cycle slot-by-slot on a drift-free
// slot clock and multicasts each slot's per-channel page frames to every
// subscribed TCP session (net/framing wire format). I/O is sharded across
// `loops` per-core epoll threads (net::LoopGroup): SO_REUSEPORT clones the
// listener so the kernel spreads accepted connections, and every session
// is pinned to the loop that accepted it — its decoder, egress queue, and
// epoll registration are touched by that loop only, so the hot path needs
// no per-session locks. The egress path is zero-copy fan-out: each slot's
// per-channel frame is encoded at most once on the airing loop (and, the
// program being periodic, in single-loop mode usually just slot-patched
// from last cycle's cached bytes), shared by refcount into every
// subscriber's chunked egress queue, and flushed with vectored sendmsg —
// per-slot server cost is O(subscribed channels) in copies globally and
// O(sessions/loops) queue appends per loop, independent of
// audience-times-bytes. A session whose queued bytes outgrow the
// configured cap is evicted by its owning loop — one slow client must
// never stall the broadcast (the whole point of the broadcast model is
// that server load is independent of audience size).
//
// Loop 0 is the airing plane and the single writer for program state: the
// slot clock, generation activation, seam planning, and the frame cache
// live there. Each tick it builds the slot's frame set once and post()s a
// refcounted token to the other loops, which fan the shared buffers into
// their local sessions. Hot swap requests from sessions on other loops are
// forwarded to loop 0 the same way, and the activation announce comes back
// as a cross-loop broadcast token (DESIGN.md §7 "loop-per-core ownership").
//
// Hot program swap: any session may send a kSwap frame carrying a new
// workload. Scheduling runs OFF the event loop threads (through the same
// choose_schedule entry point the adaptive simulation uses), the resulting
// program is validity-checked, and a seam plan picks the airing rotation
// that best preserves outstanding deadline promises; the new generation
// activates at the next major-cycle boundary and is announced to every
// session (DESIGN.md §7 gives the seam argument).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/http_admin.hpp"
#include "net/loop_group.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/slot_clock.hpp"
#include "net/socket.hpp"
#include "net/uring_flush.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/watchdog.hpp"
#include "online/estimator.hpp"
#include "server/pull_plane.hpp"

namespace tcsa {

/// Slot-fanout flush backend selection (the runtime rung of the uring
/// degradation ladder; the compile-time rung is TCSA_URING=OFF).
enum class UringMode {
  kAuto,  ///< use io_uring when the startup probe succeeds, else sendmsg
  kOn,    ///< require io_uring; construction throws when unavailable
  kOff,   ///< classic per-session sendmsg flush only
};

struct AirServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;       ///< 0 = kernel-assigned ephemeral port
  SlotCount channels = 0;       ///< 0 = Theorem 3.1 minimum for the workload
  bool auto_method = true;      ///< SUSC/PAMAD via choose_schedule
  Method method = Method::kPamad;  ///< used only when !auto_method
  std::uint32_t slot_us = 1000;    ///< real-time length of one slot
  std::uint64_t max_slots = 0;     ///< stop after airing this many (0 = run)
  std::size_t max_session_buffer = 256 * 1024;  ///< eviction threshold
  int session_send_buffer = 0;  ///< SO_SNDBUF per session; 0 = default
  std::size_t loops = 1;        ///< per-core I/O loops (1 = classic single)
  UringMode uring = UringMode::kAuto;  ///< slot-fanout flush backend

  // --- pull plane (hybrid push/pull) ---
  /// On-demand airings per slot on top of the broadcast program. 0 keeps
  /// the classic push-only server: kReq frames are acked for tracing but
  /// schedule nothing. With N > 0, loop 0 owns a per-page demand table;
  /// each slot it pops up to N pages by `pull_policy` and airs them as
  /// kPull frames to every session with a pending request for the page.
  std::size_t pull_channels = 0;
  PullPolicy pull_policy = PullPolicy::kLongestWaitFirst;

  // --- telemetry plane ---
  int admin_port = -1;          ///< HTTP admin port; 0 = ephemeral, -1 = off
  std::string admin_bind = "127.0.0.1";
  std::size_t timeline_capacity = 4096;  ///< slots retained for /slots
  double slo_breach_us = 0.0;   ///< slot-lag SLO (us); <= 0 = no breach check
  std::size_t slo_window = 256; ///< watchdog percentile window (slots)
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
  std::uint32_t flight_capacity = 4096;  ///< ring size in events
};

/// Outcome of seam planning for a major-cycle-boundary swap: air the new
/// program rotated by `offset` columns; `seam_lateness` is the worst
/// remaining slack violation in slots (<= 0 means every outstanding
/// deadline promise for pages common to both workloads is preserved).
struct SwapPlan {
  SlotCount offset = 0;
  SlotCount seam_lateness = 0;
};

/// Slow-client eviction predicate over queued egress bytes: a session is
/// evicted only when its queue strictly exceeds the cap — a queue sitting
/// exactly at the cap stays (tests pin the boundary so fan-out rewrites
/// cannot drift it by one frame).
constexpr bool should_evict(std::size_t queued_bytes,
                            std::size_t cap) noexcept {
  return queued_bytes > cap;
}

/// Picks the airing rotation of `next_program` minimizing the swap seam:
/// for every page p common to both workloads, the promise outstanding at
/// the boundary is "p completes within first_old(p) slots" (what the old
/// program would have delivered had it kept cycling); the plan minimizes
/// max_p(first_new(p) - first_old(p)). `current_offset` is the rotation the
/// old program airs under. Rotation preserves validity condition (2) — the
/// appearance gaps of a cyclic program are rotation-invariant.
SwapPlan plan_swap_seam(const Workload& current_workload,
                        const BroadcastProgram& current_program,
                        SlotCount current_offset,
                        const Workload& next_workload,
                        const BroadcastProgram& next_program);

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
    return evicted_.load(std::memory_order_relaxed);
  }
  /// Slots whose airing lag exceeded the configured SLO.
  std::uint64_t slo_breaches() const noexcept {
    return watchdog_.breaches();
  }
  /// Per-slot airing records (any thread; see obs::SlotTimeline).
  const obs::SlotTimeline& timeline() const noexcept { return timeline_; }
  std::size_t loops() const noexcept { return loop_count_; }
  /// Live session count per loop shard (index = loop).
  std::vector<std::size_t> sessions_per_loop() const;

  /// True when slot-fanout flushes ride io_uring (resolved at startup by
  /// the config mode + compile/runtime probe ladder).
  bool uring_active() const noexcept { return uring_active_; }

  /// Demand-driven tolerance estimator fed by pull waits, or nullptr with
  /// the pull plane off. Loop-0 state: read only after run() returns (or
  /// from loop-0 callbacks).
  const ToleranceEstimator* pull_estimator() const noexcept {
    return pull_estimator_.get();
  }

 private:
  static constexpr std::uint64_t kReqUnmatched = ~0ull;
  /// Open requests a session may hold; the oldest is dropped beyond this
  /// (a client re-requesting faster than pages air is misbehaving).
  static constexpr std::size_t kMaxPendingReqs = 64;

  /// One open traced page request (kReq), session-local so completion needs
  /// no cross-shard lookups: the request resolves when its page next airs
  /// on a channel the session subscribes to. `encoded_slot` flips from
  /// kReqUnmatched when that slot's frame enters the session's queue, and
  /// the entry retires after the same slot's flush.
  struct PendingReq {
    std::uint64_t trace_id = 0;
    PageId page = 0;
    std::uint64_t recv_us = 0;     // server trace clock at kReq parse
    std::uint64_t encoded_slot = kReqUnmatched;
    bool via_pull = false;         // resolved by a kPull airing, not broadcast
  };

  struct Session {
    net::Fd fd;
    net::FrameDecoder decoder;
    net::OutQueue out;            // chunked egress queue (shared buffers)
    std::uint64_t id = 0;         // monotonic, validates cross-loop refs
    std::uint64_t mask = 0;       // subscribed channel mask (0 = none yet)
    std::uint32_t hello_generation = 0;  // gen the session last heard about
    bool want_write = false;      // EPOLLOUT currently armed
    std::vector<PendingReq> pending;  // open traced requests (usually empty)
  };

  /// Everything one loop owns. Only that loop's thread touches the
  /// non-atomic members; the atomics are what other threads read (loop 0
  /// at air time, health probes). Counters live in the obs registry.
  struct LoopShard {
    std::size_t index = 0;
    net::EventLoop* loop = nullptr;
    net::Fd listener;             // SO_REUSEPORT clone (plain at loops==1)
    std::unordered_map<int, Session> sessions;
    // Per-channel subscriber counts -> exact audience union in O(64),
    // updated on tune/close instead of an O(sessions) scan every slot.
    std::array<std::uint32_t, 64> channel_subs{};
    bool running = false;         // worker poll-loop flag (worker-thread only)
    /// Batched-flush ring (null = classic sendmsg flush). Built on the main
    /// thread before workers start, then touched only by the owning loop.
    std::unique_ptr<net::UringFlusher> uring;
    std::atomic<std::uint64_t> audience{0};      // union of session masks
    std::atomic<std::size_t> session_count{0};
    std::atomic<std::size_t> queued_bytes{0};    // after last slot flush
    /// Epoch mark for the frame cache: slots [0, delivered_through) have
    /// been fully fanned out by this worker AND every token reference it
    /// held for them released (the release store happens after the
    /// token.reset() in the posted delivery lambda; loop 0 acquire-reads
    /// the minimum across workers as its patch floor). Worker shards only;
    /// shard 0's references are the airing loop's own.
    std::atomic<std::uint64_t> delivered_through{0};
  };

  /// Cross-loop session address: fd alone is unsafe (fds are reused), so
  /// deliveries validate the monotonic id on arrival.
  struct SessionRef {
    std::size_t loop = 0;
    int fd = -1;
    std::uint64_t id = 0;
  };

  /// One aired slot, shipped to worker loops as a refcounted token: the
  /// frame (if any) per channel, the mask of channels that aired, and the
  /// page each aired channel carried (so shards can resolve their own
  /// sessions' pending traced requests without touching program state).
  struct SlotFrames {
    std::uint64_t slot = 0;
    std::uint64_t aired_mask = 0;
    std::vector<net::SharedBuf> by_channel;
    std::vector<PageId> page_by_channel;
    // On-demand airings riding the same token (usually empty): shards
    // deliver pull_frames[i] to every local session with a pending kReq
    // for pull_pages[i], independent of the session's channel mask.
    std::vector<net::SharedBuf> pull_frames;
    std::vector<PageId> pull_pages;
  };

  /// One program generation: what is on air between two swaps.
  struct Generation {
    std::uint32_t id = 0;
    Workload workload;
    BroadcastProgram program;
    SlotCount offset = 0;          // airing rotation (column of slot 0)
    std::uint64_t start_slot = 0;  // global slot of its first aired column
    std::string workload_binary;   // cached for hello/announce payloads
  };

  /// Hello/announce ingredients every loop may need when greeting: a
  /// mutex-guarded snapshot loop 0 republishes at each generation
  /// activation (the slot number is read from slots_aired_ instead, so the
  /// snapshot only changes a handful of times per run).
  struct HelloSnapshot {
    std::uint32_t id = 0;
    std::uint32_t channels = 0;
    std::uint32_t cycle = 0;
    std::string workload_binary;
    /// Promised wait t_p per page under this generation, shared so any
    /// loop can stamp a request ack without reparsing the workload.
    std::shared_ptr<const std::vector<SlotCount>> expected_times;
  };

  void on_timer();
  void air_slot();
  void maybe_activate_swap();
  void worker_body(std::size_t index);
  /// Bounded flush window, then closes the shard's sessions and listener.
  void drain_and_close(LoopShard& shard);
  void on_accept(LoopShard& shard);
  void on_session_event(LoopShard& shard, int fd, std::uint32_t events);
  void handle_frame(LoopShard& shard, int fd, const net::Frame& frame);
  /// Parses a kReq, opens a pending entry, and acks immediately with the
  /// server-side clock stamps (t1/t2 of the offset exchange). Runs on the
  /// session's own loop — may close the session while flushing the ack.
  void handle_page_request(LoopShard& shard, Session& session,
                           std::uint64_t trace_id, PageId page);
  /// Marks pending requests satisfied by this slot's fan-out (the page hit
  /// a subscribed, aired channel) and records their encode-stage events.
  void note_request_encodes(Session& session, std::uint64_t slot,
                            std::uint64_t hit_mask,
                            const std::vector<PageId>& page_by_channel);
  /// Registers pull demand in the loop-0 demand table (other loops forward
  /// via post(), like swap requests). Unknown pages are counted and
  /// dropped — the kReqAck already went out; nothing airs for them.
  void note_pull_demand(std::uint64_t session_id, std::uint64_t trace_id,
                        PageId page);
  /// Pops up to pull_channels pages from the demand table by the configured
  /// policy and encodes their kPull frames into `frames`. Loop 0 only;
  /// feeds the estimator and the pull metrics, and emits the per-waiter
  /// kServerPullAired journey events.
  void schedule_pulls(SlotFrames& frames);
  /// Fans this slot's pull frames into the shard's sessions that hold an
  /// unmatched pending request for the page (mask-independent), appending
  /// delivered fds to `flush_fds`. Runs on the shard's thread.
  void deliver_pull_frames(LoopShard& shard, const SlotFrames& frames,
                           std::vector<int>& flush_fds);
  /// Retires requests whose airing slot just flushed: records the flush
  /// event, feeds the service-delay stats, and erases the entries.
  void finish_requests(Session& session);
  /// Runs on loop 0 only (other loops forward via post()).
  void handle_swap_request(SessionRef requester, const std::string& payload);
  /// Delivers framed reply bytes to a session wherever it lives; drops the
  /// reply silently if the session is gone (id mismatch or closed).
  void send_swap_reply(const SessionRef& ref, std::string frame_bytes);
  /// Fans one slot's frames into the shard's subscribed sessions, flushes,
  /// and publishes the shard's queue depth. Runs on the shard's thread.
  void deliver_slot(LoopShard& shard, const SlotFrames& frames);
  /// Patch floor for the frame cache (exclusive): every worker loop has
  /// delivered — and dropped its token references for — all slots below
  /// it. UINT64_MAX at loops == 1 (no foreign loops; the classic path).
  std::uint64_t delivered_floor() const noexcept;
  /// Resets the frame cache for a newly activated generation.
  void reset_frame_cache(std::uint32_t gen_id, SlotCount channel_count,
                         SlotCount cycle);
  /// The (channel, column) page frame stamped with next_slot_: a slot-word
  /// patch of the cached buffer when epoch + sole ownership allow it, a
  /// fresh encode otherwise. Returns a handle sharing the cache cell.
  net::SharedBuf slot_frame(const Generation& gen, SlotCount ch,
                            SlotCount column, SlotCount cycle, PageId page,
                            std::uint64_t floor);
  /// Flushes the slot fan-out for `fds` (possibly with duplicates) and
  /// runs the per-session post-flush bookkeeping (eviction, EPOLLOUT
  /// interest, request completion). Batches through the shard's io_uring
  /// ring when it has one, else per-session flush_session.
  void flush_fanout(LoopShard& shard, const std::vector<int>& fds);
  void flush_fanout_uring(LoopShard& shard, std::vector<int> dirty);
  /// Defensive eventfd-readiness harvest: flush_fanout_uring waits for its
  /// whole batch inside the submitting enter, so this normally only drains
  /// the eventfd counter; any CQE it does find is counted and discarded.
  void harvest_uring(LoopShard& shard);
  /// Enqueues the announce to sessions not yet greeted under `gen_id`.
  void deliver_announce(LoopShard& shard, const net::SharedBuf& buf,
                        std::uint32_t gen_id);
  /// Registers the /metrics, /metrics.json, /healthz and /slots handlers.
  /// All run on loop 0 next to the airing path, so they may read loop-0
  /// state (clock_, next_slot_) without locks — and must stay snapshot
  /// cheap, since they share the thread with the slot timer.
  void setup_admin_routes();
  std::string healthz_json() const;
  /// Feeds the watchdog and appends this slot's record to the timeline.
  void note_slot_aired(std::uint64_t lag_us, std::uint64_t aired_mask);
  void install_signal_pipe();
  void remove_signal_pipe();
  void queue_frame(Session& session, net::FrameType type,
                   std::string_view payload);
  void enqueue_buf(Session& session, net::SharedBuf buf);
  /// Returns false when the session died (error or eviction) while flushing.
  bool flush_session(LoopShard& shard, Session& session);
  void close_session(LoopShard& shard, int fd, const char* reason);
  void update_write_interest(LoopShard& shard, Session& session);
  /// Rewrites a session's subscription mask, keeping the shard's
  /// subscriber counts and published audience union exact.
  void set_mask(LoopShard& shard, Session& session, std::uint64_t mask);
  void publish_hello(const Generation& gen);
  /// Hello/announce payload from the published snapshot; any thread.
  /// `gen_out` (optional) receives the generation id baked into the bytes.
  std::string hello_payload_now(std::uint32_t* gen_out = nullptr) const;
  std::size_t total_sessions() const;

  AirServerConfig config_;
  SlotCount channels_ = 0;
  std::uint16_t port_ = 0;
  std::size_t loop_count_ = 1;

  std::unique_ptr<net::LoopGroup> group_;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  net::TimerFd timer_;
  std::unique_ptr<net::SlotClock> clock_;  // built in run(): epoch = on-air

  // --- telemetry plane ---
  std::unique_ptr<net::HttpAdmin> admin_;  // null when admin_port < 0
  obs::SlotTimeline timeline_;
  obs::SloWatchdog watchdog_;              // observed by loop 0 only
  std::atomic<std::uint64_t> bytes_flushed_total_{0};  // all loops add
  std::uint64_t last_timeline_bytes_ = 0;  // loop-0-only delta base
  net::Fd signal_rd_;                      // self-pipe read end (loop 0)
  net::Fd signal_wr_;

  // --- loop-0-only program state (single writer) ---
  std::unique_ptr<Generation> current_;
  std::unique_ptr<Generation> pending_;   // activates at the next boundary
  std::uint64_t next_slot_ = 0;           // next global slot to air
  bool running_ = false;

  // Per-cycle frame cache: the program is periodic with period
  // cycle_length, so a (channel, column) page frame's bytes are invariant
  // within a generation except the slot word — each cycle that word is
  // patched in place when the cache holds the only reference, and the
  // frame is re-encoded only on first airing or while a slow session
  // still has last cycle's buffer queued. Indexed channel * cycle +
  // column; rebuilt whenever a new generation goes on air.
  //
  // Multi-loop safety (the epoch handshake): a bare use_count()==1
  // observation cannot be trusted while another loop might still hold a
  // reference — so a cell is only patch-eligible when delivered_floor()
  // has passed the slot it last aired at (every worker release-published
  // its token drop for that slot; loop 0 acquire-reads the floor), and
  // the refcount check then rules out the stragglers a floor cannot see:
  // session egress queues on any loop still draining the buffer. Those
  // queue references are byte-safe by construction — worker user space
  // never reads frame bytes (sendmsg copies them in the kernel during the
  // worker's own syscall), and SharedBuf::patch_u64 issues an acquire
  // fence after observing sole ownership, so the patch cannot race the
  // release that dropped the last foreign reference.
  std::vector<net::SharedBuf> frame_cache_;
  std::vector<std::uint64_t> frame_cache_slot_;  // last slot each cell aired
  std::uint32_t frame_cache_generation_ = 0;

  // Hot-swap worker: one reschedule in flight at a time.
  std::thread swap_worker_;
  bool swap_inflight_ = false;
  SessionRef swap_requester_;

  // --- pull plane (loop-0-only, like the program state) ---
  PullDemandTable pull_table_;
  /// Pull-pressure tolerance estimator, one class per workload group (null
  /// with the pull plane off). Observed pull waits are the genuine demand
  /// signal the adaptive path re-estimates popularity from.
  std::unique_ptr<ToleranceEstimator> pull_estimator_;
  std::uint64_t pull_airings_ = 0;         // kPull airings so far (/healthz)
  std::uint64_t pull_waiters_served_ = 0;  // waiters those airings satisfied

  mutable std::mutex hello_mutex_;
  HelloSnapshot hello_;

  std::vector<obs::MetricId> loop_queue_gauges_;  // one per loop shard
  obs::MetricId uptime_gauge_ = 0;     // tcsa_uptime_seconds
  obs::MetricId build_info_gauge_ = 0; // tcsa_build_info (labeled, value 1)
  std::uint64_t on_air_epoch_us_ = 0;  // clock_->now_us() when airing began

  bool uring_active_ = false;  // resolved at construction, then read-only
  std::atomic<std::uint64_t> next_session_id_{0};
  std::atomic<std::uint64_t> slots_aired_{0};
  std::atomic<std::uint32_t> generation_id_{0};
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace tcsa
