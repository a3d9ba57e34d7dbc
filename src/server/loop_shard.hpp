// loop_shard.hpp — the delivery shard: one event loop's client sessions.
//
// Every session is pinned to the loop that accepted it, so its decoder,
// egress queue and epoll registration need no locks. A LoopShard accepts,
// reads and decodes; fans each aired slot's shared frame buffer into its
// subscribers' egress queues (one pointer copy per session that takes every
// aired channel; a session tuned to fewer shares this loop's one copy of
// each channel frame it takes); and flushes through one entry point that picks the batched
// io_uring backend or per-session sendmsg. Both backends end in the same
// post-flush step: a session over the queued-bytes cap is evicted — one
// slow client must never stall the broadcast — and every other session has
// its write interest re-armed. Out of descriptors, the shard stops polling
// its listener until its next slot delivery; the pending connection waits
// in the kernel backlog.
//
// What a session is told comes from the shard alone: the generation and
// the slot of the last token it delivered give each hello at accept and
// each kReqAck, and a token that activates a generation carries its
// announce. The shard calls into the server (ShardHooks) only to forward
// kSwap frames and pull demand, and to report a closed session.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "net/uring_flush.hpp"
#include "obs/metrics.hpp"
#include "server/generation.hpp"
#include "server/pull_plane.hpp"

namespace tcsa {

/// Slow-client eviction predicate over queued egress bytes: a session is
/// evicted only when its queue strictly exceeds the cap — a queue sitting
/// exactly at the cap stays (tests pin the boundary so fan-out rewrites
/// cannot drift it by one frame).
constexpr bool should_evict(std::size_t queued_bytes,
                            std::size_t cap) noexcept {
  return queued_bytes > cap;
}

/// One client connection, owned by the loop that accepted it.
struct Session {
  net::Fd fd;
  net::FrameDecoder decoder;
  net::OutQueue out;            // chunked egress queue (shared buffers)
  std::uint64_t id = 0;         // monotonic, validates cross-loop refs
  std::uint64_t mask = 0;       // subscribed channel mask (0 = none yet)
  bool want_write = false;      // EPOLLOUT currently armed
  PendingRequests pending;      // open traced requests (usually none)
};

/// Cross-loop session address: fd alone is unsafe (fds are reused), so
/// deliveries validate the monotonic id on arrival.
struct SessionRef {
  std::size_t loop = 0;
  int fd = -1;
  std::uint64_t id = 0;
};

/// One aired slot, shipped to every loop as a refcounted token: the
/// generation it aired under, the mask of channels that aired, and every
/// aired channel's kPage frame, back to back in ascending channel order in
/// one buffer. The generation names each channel's page, so shards resolve
/// their own sessions' pending requests without touching loop-0 state.
struct SlotFrames {
  std::uint64_t slot = 0;
  std::uint64_t aired_mask = 0;
  std::shared_ptr<const Generation> generation;
  net::SharedBuf bytes;  // null when nothing aired
  /// The generation's kAnnounce, on its activation slot only.
  net::SharedBuf announce;
  // On-demand airings riding the same token (usually empty): shards
  // deliver pull_frames[i] to every local session with a pending kReq
  // for pull_pages[i], independent of the session's channel mask.
  std::vector<net::SharedBuf> pull_frames;
  std::vector<PageId> pull_pages;

  /// Aired channel ch's frame; a view into `bytes`, so it lives with the
  /// token. Every kPage frame is kPageFrameSize bytes, so its offset is the
  /// count of aired channels below ch.
  std::string_view frame(std::size_t ch) const {
    const auto below = std::popcount(aired_mask & ((1ull << ch) - 1));
    return bytes.view().substr(
        static_cast<std::size_t>(below) * net::kPageFrameSize,
        net::kPageFrameSize);
  }
};

/// The shard's only calls into the server, made on the shard's thread.
/// `demand` and `closed` are set only when pull channels are on.
struct ShardHooks {
  /// A kSwap frame's payload from `requester`.
  std::function<void(const SessionRef& requester, std::string payload)> swap;
  /// A kReq's pull demand from session `session_id` of loop `loop`.
  std::function<void(std::size_t loop, std::uint64_t session_id,
                     std::uint64_t trace_id, PageId page)>
      demand;
  /// Session `id` of loop `loop` closed, for any reason.
  std::function<void(std::size_t loop, std::uint64_t id)> closed;
};

/// What every shard shares: limits, hooks and the counters all loops add
/// to. Owned by the server; outlives the shards.
struct ShardCommon {
  std::size_t max_session_buffer = 0;
  int session_send_buffer = 0;
  std::uint32_t slot_us = 0;
  ShardHooks hooks;
  std::atomic<std::uint64_t> evicted{0};
  /// Retired bytes across all loops: the timeline's per-slot delta reads
  /// this, not the registry counter, so it works with recording off.
  std::atomic<std::uint64_t> bytes_flushed{0};
  std::atomic<std::uint64_t> next_session_id{0};
  std::atomic<std::size_t> sessions{0};
};

class LoopShard {
 public:
  /// `on_air` greets the sessions accepted before the first delivery.
  LoopShard(std::size_t index, net::EventLoop& loop, net::Fd listener,
            ShardCommon& common, std::shared_ptr<const Generation> on_air);
  LoopShard(const LoopShard&) = delete;
  LoopShard& operator=(const LoopShard&) = delete;

  std::size_t index() const noexcept { return index_; }
  net::EventLoop& loop() noexcept { return loop_; }

  // --- the shard's own thread ---
  void listen();  ///< starts polling the listener
  /// Worker loops: listen, poll until stop(), then drain_and_close().
  void run();
  void stop() noexcept { running_ = false; }
  /// Bounded flush window, then closes every session and the listener.
  void drain_and_close();
  /// Takes the token's generation and slot as what sessions are told
  /// next; queues its announce to every session, its frames to the
  /// subscribed ones and its pull frames to the ones waiting for them;
  /// flushes, retires the requests that flush completed, and publishes the
  /// queue depth.
  void deliver(const SlotFrames& frames);
  /// Queues one encoded frame and flushes the session, which may close it.
  void send(Session& session, std::string frame);
  /// send() to the session `ref` names; dropped silently when that session
  /// is gone (closed, or its fd reused by someone else).
  void send_to(const SessionRef& ref, std::string frame);

  /// Batched flush ring (null = per-session sendmsg). Set on the main
  /// thread before the loops start, then touched only by the owning loop.
  std::unique_ptr<net::UringFlusher> uring;

  // --- read by other threads ---
  std::atomic<std::uint64_t> audience{0};    // union of session masks
  std::atomic<std::size_t> session_count{0};
  std::atomic<std::size_t> queued_bytes{0};  // after the last slot flush

 private:
  void on_accept();
  void on_event(int fd, std::uint32_t events);
  void handle_frame(Session& session, int fd, const net::Frame& frame);
  /// Opens a pending entry for a kReq, forwards its pull demand, and acks
  /// at once with the server-side clock stamps (t1/t2 of the offset
  /// exchange) and the page's promise under this loop's generation.
  void request(Session& session, const net::ReqMsg& req);
  /// Queues `buf`, which holds `frames` whole frames.
  void enqueue(Session& session, net::SharedBuf buf, std::size_t frames = 1);
  /// The fan-out flush entry point: batches `fds` (each at most once)
  /// through the ring when there is one, else sendmsg per session; then
  /// settles each survivor and retires its flushed requests.
  void flush(const std::vector<int>& fds);
  void write_uring(const std::vector<int>& fds);
  /// sendmsg drain of one session; false when a send error closed it.
  bool write(Session& session);
  /// The post-flush step of both backends: evicts an over-cap session
  /// (false) or re-arms its write interest (true).
  bool settle(Session& session);
  void close(int fd, const char* reason);
  /// Rewrites a session's subscription mask, keeping the subscriber counts
  /// and the published audience union exact.
  void set_mask(Session& session, std::uint64_t mask);

  std::size_t index_;
  net::EventLoop& loop_;
  net::Fd listener_;  // SO_REUSEPORT clone (plain with one loop)
  ShardCommon& common_;
  /// Generation of the last token delivered (or the one on air at start),
  /// and the next slot this loop will deliver.
  std::shared_ptr<const Generation> generation_;
  std::uint64_t next_slot_ = 0;
  obs::MetricId queue_gauge_;
  std::unordered_map<int, Session> sessions_;
  std::array<std::uint32_t, 64> channel_subs_{};
  bool running_ = false;        // worker poll-loop flag
  bool accept_paused_ = false;  // listener out of epoll until next slot

  // Per-slot scratch, reused so a steady-state slot allocates nothing
  // beyond the channel copies below.
  /// This slot's copy of channel ch's frame, made the first time one of
  /// this loop's partial-mask sessions takes ch and shared by all of them,
  /// so their queues never pin the whole slot buffer.
  std::array<net::SharedBuf, 64> channel_frames_;
  std::vector<int> dirty_;  // sessions deliver() queued to
  // write_uring's flush rounds and per-window arenas; the msghdr/iovec
  // arrays must outlive the enter that submits them.
  std::vector<int> round_;
  std::vector<int> next_round_;
  std::vector<int> window_fds_;
  std::vector<struct iovec> iov_;
  std::vector<struct msghdr> msgs_;
  std::vector<net::UringFlusher::Completion> cqes_;
};

}  // namespace tcsa
