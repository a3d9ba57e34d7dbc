#include "server/loop_shard.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/reqtrace.hpp"
#include "server/server_metrics.hpp"
#include "util/log.hpp"

namespace tcsa {
namespace {

/// Gathered iovecs per session per SQE. Slot fan-out queues are a handful
/// of frames deep; a backlogged session finishes in later rounds (or on
/// its own EPOLLOUT wakeup), keeping the per-batch iovec arena to
/// sessions x 32 x 16 B instead of sessions x IOV_MAX.
constexpr std::size_t kUringIovPerTarget = 32;

}  // namespace

LoopShard::LoopShard(std::size_t index, net::EventLoop& loop,
                     net::Fd listener, ShardCommon& common,
                     std::shared_ptr<const Generation> on_air)
    : index_(index),
      loop_(loop),
      listener_(std::move(listener)),
      common_(common),
      generation_(std::move(on_air)),
      queue_gauge_(obs::register_gauge(
          "tcsa_server_loop" + std::to_string(index) + "_queue_depth_bytes",
          "Bytes queued across loop " + std::to_string(index) +
              "'s session egress queues after its last slot flush")) {}

void LoopShard::listen() {
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

void LoopShard::run() {
  running_ = true;
  listen();
  while (running_) loop_.poll(-1);
  drain_and_close();
}

void LoopShard::drain_and_close() {
  // Bounded drain: give buffered frames one real chance to reach clients
  // before the sockets close under them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  for (;;) {
    bool pending = false;
    for (auto& [fd, session] : sessions_)
      if (!session.out.empty()) pending = true;
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    loop_.poll(10'000);
  }
  while (!sessions_.empty()) close(sessions_.begin()->first, "server shutdown");
  loop_.remove(listener_.get());
}

void LoopShard::deliver(const SlotFrames& frames) {
  if (accept_paused_) {
    accept_paused_ = false;
    listen();
  }
  generation_ = frames.generation;
  next_slot_ = frames.slot + 1;
  const Generation& gen = *generation_;
  dirty_.clear();
  std::uint64_t copied = 0;  // channels with a copy in channel_frames_
  for (auto& [fd, session] : sessions_) {
    // This loop greets each session with the generation it has delivered,
    // so every session here was greeted under an older one than a token's
    // announce names: each hears it exactly once, in this flush, tuned or
    // not.
    if (frames.announce) enqueue(session, frames.announce);
    const std::uint64_t hit = session.mask & frames.aired_mask;
    if (hit == frames.aired_mask) {
      // Every aired channel: the whole slot buffer as one chunk, the same
      // bytes in the same channel order as frame-by-frame queueing.
      if (hit != 0)
        enqueue(session, frames.bytes,
                static_cast<std::size_t>(std::popcount(hit)));
    } else {
      for (std::uint64_t bits = hit; bits != 0; bits &= bits - 1) {
        const int ch = std::countr_zero(bits);
        net::SharedBuf& copy = channel_frames_[ch];
        if (((copied >> ch) & 1) == 0) {
          copy = net::SharedBuf::wrap(std::string(frames.frame(ch)));
          copied |= 1ull << ch;
        }
        enqueue(session, copy);
      }
    }
    bool dirty = hit != 0 || frames.announce;
    if (!session.pending.empty()) {
      session.pending.match_broadcast(frames.slot, hit, gen.program,
                                      gen.column(frames.slot));
      // Pull frames go to waiting sessions whatever their channel mask.
      for (std::size_t i = 0; i < frames.pull_pages.size(); ++i) {
        if (!session.pending.match_pull(frames.slot, frames.pull_pages[i]))
          continue;
        enqueue(session, frames.pull_frames[i]);
        dirty = true;
      }
    }
    if (dirty) dirty_.push_back(fd);
  }
  flush(dirty_);
  std::size_t queued = 0;
  for (const auto& [fd, session] : sessions_) queued += session.out.bytes();
  queued_bytes.store(queued, std::memory_order_release);
  obs::gauge_set(queue_gauge_, static_cast<double>(queued));
}

void LoopShard::send(Session& session, std::string frame) {
  enqueue(session, net::SharedBuf::wrap(std::move(frame)));
  if (write(session)) settle(session);
}

void LoopShard::send_to(const SessionRef& ref, std::string frame) {
  const auto it = sessions_.find(ref.fd);
  if (it != sessions_.end() && it->second.id == ref.id)
    send(it->second, std::move(frame));
}

void LoopShard::enqueue(Session& session, net::SharedBuf buf,
                        std::size_t frames) {
  obs::counter_add(server_metrics().frames_sent, frames);
  obs::counter_add(server_metrics().bytes_queued, buf.size());
  session.out.push(std::move(buf));
}

void LoopShard::flush(const std::vector<int>& fds) {
  if (uring) write_uring(fds);
  // Sessions may close while flushing, so walk by fd lookup.
  for (const int fd : fds) {
    const auto it = sessions_.find(fd);
    if (it == sessions_.end()) continue;
    Session& session = it->second;
    if (!uring && !write(session)) continue;
    if (settle(session) && !session.pending.empty())
      session.pending.retire(session.out.bytes());
  }
}

void LoopShard::write_uring(const std::vector<int>& fds) {
  net::UringFlusher& ring = *uring;
  const std::size_t cap = ring.capacity();
  // With MSG_DONTWAIT every completion is harvested before its window
  // below finishes, so the member arenas are free again by the next one.
  round_.assign(fds.begin(), fds.end());
  while (!round_.empty()) {
    next_round_.clear();
    for (std::size_t base = 0; base < round_.size(); base += cap) {
      const std::size_t n = std::min(cap, round_.size() - base);
      iov_.resize(n * kUringIovPerTarget);
      msgs_.assign(n, msghdr{});
      window_fds_.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const int fd = round_[base + i];
        const auto it = sessions_.find(fd);
        if (it == sessions_.end() || it->second.out.empty()) continue;
        const std::size_t k = window_fds_.size();
        struct iovec* vecs = &iov_[k * kUringIovPerTarget];
        struct msghdr& msg = msgs_[k];
        msg.msg_iov = vecs;
        msg.msg_iovlen = it->second.out.gather(vecs, kUringIovPerTarget);
        if (!ring.push_sendmsg(fd, &msg, k)) break;  // cannot happen: n<=cap
        window_fds_.push_back(fd);
      }
      if (window_fds_.empty()) continue;
      std::size_t enters = ring.submit_and_wait(
          static_cast<unsigned>(window_fds_.size()));
      cqes_.clear();
      ring.harvest(cqes_);
      // Defensive tail: an op the kernel decided to finish asynchronously
      // (should not happen under MSG_DONTWAIT) is waited out here, so no
      // op still points into the arenas when the next window reuses them,
      // and no completion is ever left in the ring after the batch.
      while (ring.inflight() > 0) {
        enters += ring.submit_and_wait(ring.inflight());
        ring.harvest(cqes_);
      }
      const std::size_t sqes = window_fds_.size();
      obs::counter_add(server_metrics().uring_enters, enters);
      obs::counter_add(server_metrics().uring_sqes, sqes);
      if (sqes > enters)
        obs::counter_add(server_metrics().uring_saved, sqes - enters);
      // CQE processing mirrors flush_queue's ledger: positive results
      // consume queue bytes, -EAGAIN parks the session for its own
      // EPOLLOUT wakeup, anything else is fatal.
      for (const net::UringFlusher::Completion& cqe : cqes_) {
        const int fd = window_fds_[static_cast<std::size_t>(cqe.user_data)];
        const auto it = sessions_.find(fd);
        if (it == sessions_.end()) continue;
        Session& session = it->second;
        if (cqe.res > 0) {
          const std::size_t sent = static_cast<std::size_t>(cqe.res);
          const std::size_t retired = session.out.consume(sent);
          common_.bytes_flushed.fetch_add(retired, std::memory_order_relaxed);
          obs::counter_add(server_metrics().bytes_sent, sent);
          obs::counter_add(server_metrics().bytes_flushed, retired);
          if (!session.out.empty()) next_round_.push_back(fd);
        } else if (cqe.res == -EAGAIN || cqe.res == -EWOULDBLOCK ||
                   cqe.res == 0) {
          obs::counter_add(server_metrics().flush_eagain, 1);
        } else if (cqe.res == -EINTR) {
          next_round_.push_back(fd);
        } else {
          errno = -cqe.res;
          close(fd, "send error");
        }
      }
    }
    std::swap(round_, next_round_);
  }
}

bool LoopShard::write(Session& session) {
  const net::FlushResult result = net::flush_queue(session.fd.get(),
                                                   session.out);
  common_.bytes_flushed.fetch_add(result.bytes_retired,
                                  std::memory_order_relaxed);
  if (result.syscalls > 0) {
    obs::counter_add(server_metrics().writev_calls, result.syscalls);
    obs::counter_add(server_metrics().bytes_sent, result.bytes_sent);
    obs::counter_add(server_metrics().bytes_flushed, result.bytes_retired);
  }
  // Would-block probes on their own meter: they are syscall overhead that
  // moved no bytes, and folding them into writev_calls would skew the
  // syscalls-per-flushed-byte ratio the egress benches gate on.
  if (result.eagain_calls > 0)
    obs::counter_add(server_metrics().flush_eagain, result.eagain_calls);
  if (result.error == 0) return true;
  close(session.fd.get(), "send error");
  return false;
}

bool LoopShard::settle(Session& session) {
  const int fd = session.fd.get();
  if (should_evict(session.out.bytes(), common_.max_session_buffer)) {
    common_.evicted.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add(server_metrics().evictions, 1);
    TCSA_LOG(kWarn) << "air server: evicting slow client (queued "
                    << session.out.bytes() << " > cap "
                    << common_.max_session_buffer << ")";
    close(fd, "slow client evicted");
    return false;
  }
  const bool want = !session.out.empty();
  if (want != session.want_write) {
    session.want_write = want;
    loop_.modify(fd, EPOLLIN | (want ? EPOLLOUT : 0u));
  }
  return true;
}

void LoopShard::on_accept() {
  for (;;) {
    bool backoff = false;
    net::Fd conn = net::accept_connection(listener_.get(), &backoff);
    if (backoff) {
      // Out of descriptors: stop polling the listener (level-triggered, it
      // would spin) until the next slot delivery re-arms it.
      loop_.remove(listener_.get());
      accept_paused_ = true;
      obs::counter_add(server_metrics().accept_backoffs, 1);
      TCSA_LOG(kDebug) << "air server: accept backoff on loop " << index_;
      return;
    }
    if (!conn) return;
    net::set_tcp_nodelay(conn.get());
    net::set_send_buffer(conn.get(), common_.session_send_buffer);
    const int fd = conn.get();
    Session& session = sessions_[fd];
    session.fd = std::move(conn);
    session.id =
        common_.next_session_id.fetch_add(1, std::memory_order_relaxed) + 1;
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) { on_event(fd, events); });
    session_count.store(sessions_.size(), std::memory_order_release);
    obs::counter_add(server_metrics().sessions_opened, 1);
    obs::gauge_set(server_metrics().sessions_gauge,
                   static_cast<double>(common_.sessions.fetch_add(1) + 1));
    send(session, generation_->hello(net::FrameType::kHello, common_.slot_us,
                                     next_slot_));
  }
}

void LoopShard::on_event(int fd, std::uint32_t events) {
  auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  Session& session = it->second;

  if (events & (EPOLLERR | EPOLLHUP)) {
    close(fd, "peer hung up");
    return;
  }
  if (events & EPOLLOUT) {
    if (!write(session) || !settle(session)) return;  // died flushing
  }
  if ((events & EPOLLIN) == 0) return;

  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      session.decoder.feed(std::string_view(buffer,
                                            static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      close(fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close(fd, "recv error");
    return;
  }

  net::Frame frame;
  try {
    while (session.decoder.next(frame)) {
      handle_frame(session, fd, frame);
      if (sessions_.find(fd) == sessions_.end()) return;  // closed inside
    }
  } catch (const std::invalid_argument& e) {
    TCSA_LOG(kWarn) << "air server: dropping session: " << e.what();
    close(fd, "protocol error");
  }
}

void LoopShard::handle_frame(Session& session, int fd,
                             const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kTune:
      set_mask(session, net::decode<net::TuneMsg>(frame.payload).mask);
      obs::counter_add(server_metrics().tunes, 1);
      return;
    case net::FrameType::kReq:
      request(session, net::decode<net::ReqMsg>(frame.payload));
      return;
    case net::FrameType::kSwap:
      common_.hooks.swap(SessionRef{index_, fd, session.id},
                         std::string(frame.payload));
      return;
    default:
      throw std::invalid_argument("unexpected frame type from client");
  }
}

void LoopShard::request(Session& session, const net::ReqMsg& req) {
  const std::uint64_t t_recv = obs::trace_now_us();
  TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerRecv, t_recv, req.page);
  obs::counter_add(server_metrics().reqs, 1);
  session.pending.open(req.trace_id, req.page, t_recv);
  // With the pull plane on, the request is real demand, not just a tracing
  // hook: loop 0's demand table takes it.
  if (common_.hooks.demand)
    common_.hooks.demand(index_, session.id, req.trace_id, req.page);

  const Workload& workload = generation_->workload;
  const std::uint32_t expected_slots =
      static_cast<SlotCount>(req.page) < workload.total_pages()
          ? static_cast<std::uint32_t>(workload.expected_time_of(req.page))
          : 0;
  const std::uint64_t t_send = obs::trace_now_us();
  TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerSched, t_send,
                 next_slot_);
  send(session, net::encode(net::ReqAckMsg{.trace_id = req.trace_id,
                                           .recv_us = t_recv,
                                           .send_us = t_send,
                                           .next_slot = next_slot_,
                                           .page = req.page,
                                           .expected_slots = expected_slots,
                                           .generation = generation_->id}));
}

void LoopShard::set_mask(Session& session, std::uint64_t mask) {
  if (session.mask == mask) return;
  std::uint64_t union_mask = audience.load(std::memory_order_relaxed);
  for (std::size_t ch = 0; ch < 64; ++ch) {
    const std::uint64_t bit = 1ull << ch;
    if ((session.mask & bit) && !(mask & bit) && --channel_subs_[ch] == 0)
      union_mask &= ~bit;
    if (!(session.mask & bit) && (mask & bit) && channel_subs_[ch]++ == 0)
      union_mask |= bit;
  }
  session.mask = mask;
  audience.store(union_mask, std::memory_order_release);
}

void LoopShard::close(int fd, const char* reason) {
  const auto it = sessions_.find(fd);
  if (it == sessions_.end()) return;
  TCSA_LOG(kDebug) << "air server: closing session fd=" << fd << " ("
                   << reason << ")";
  if (common_.hooks.closed) common_.hooks.closed(index_, it->second.id);
  set_mask(it->second, 0);  // keep the audience union exact
  loop_.remove(fd);
  sessions_.erase(it);  // Fd destructor closes the socket
  session_count.store(sessions_.size(), std::memory_order_release);
  obs::counter_add(server_metrics().sessions_closed, 1);
  obs::gauge_set(server_metrics().sessions_gauge,
                 static_cast<double>(common_.sessions.fetch_sub(1) - 1));
}

}  // namespace tcsa
