// micro_egress.cpp — fan-out throughput of the zero-copy egress path
// (shared slot buffers, chunked session queues, vectored flush) against
// the PR 4 copy-per-session baseline, over AF_UNIX socketpairs.
//
// Three families, each with K subscribed sessions and C = 4 channels:
//   * BM_FanoutSharedBuf — encode each channel frame once per slot into its
//     own SharedBuf, refcount all C into every session's OutQueue,
//     sendmsg-flush.
//   * BM_FanoutSlotBuf — the server's airing discipline: encode the slot's
//     C frames back to back into one SharedBuf and queue it as one chunk
//     per full-mask session.
//   * BM_FanoutCopy — the PR 4 baseline: append every frame's bytes into
//     each session's own std::string and send() it per session.
// Plus BM_BacklogFlush{Vectored,PerChunk}: one backlogged session with a
// deep chunk queue, drained by bounded-iovec sendmsg versus one send per
// chunk — the syscalls-per-flush claim — and BM_FanoutUring, the io_uring
// batched flush: one sendmsg SQE per dirty session, one io_uring_enter per
// ring-capacity window, versus one sendmsg syscall per session on the
// classic path.
//
// Timing loops measure the hot path; the *_total counters come from one
// fixed-size pass (kCounterSlots slots) after timing, so BENCH_micro.json
// carries exact, machine-independent work counts for the CI counter gate:
// bytes memcpy'd and flush syscalls are deterministic given a send buffer
// large enough that a slot's fan-out never backpressures.
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/framing.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "net/uring_flush.hpp"

namespace {

constexpr std::size_t kChannels = 4;
constexpr std::size_t kCounterSlots = 256;  // fixed pass for exact counters
constexpr std::size_t kBacklogChunks = 1024;
constexpr unsigned kBenchRingEntries = 16;  // small ring: windows show up

std::string encode_page_frame(std::uint64_t slot, std::uint32_t channel) {
  // The page id is irrelevant to egress: reuse the channel.
  return tcsa::net::encode(tcsa::net::PageMsg{slot, 1, channel, channel});
}

/// K sessions, each an AF_UNIX socketpair with a send buffer deep enough
/// that one slot's fan-out always fits; readers are drained every slot so
/// the kernel never backpressures and syscall counts stay exact.
class Rig {
 public:
  explicit Rig(std::size_t sessions)
      : queues_(sessions), pendings_(sessions), scratch_(1 << 16) {
    for (std::size_t i = 0; i < sessions; ++i) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::abort();
      tcsa::net::Fd writer(fds[0]);
      tcsa::net::Fd reader(fds[1]);
      tcsa::net::set_nonblocking(writer.get(), true);
      tcsa::net::set_nonblocking(reader.get(), true);
      tcsa::net::set_send_buffer(writer.get(), 1 << 20);
      writers_.push_back(std::move(writer));
      readers_.push_back(std::move(reader));
    }
  }

  std::size_t sessions() const { return writers_.size(); }
  int writer(std::size_t i) const { return writers_[i].get(); }
  tcsa::net::OutQueue& queue(std::size_t i) { return queues_[i]; }
  std::string& pending(std::size_t i) { return pendings_[i]; }

  void drain_all() {
    for (const tcsa::net::Fd& reader : readers_)
      while (::recv(reader.get(), scratch_.data(), scratch_.size(), 0) > 0) {
      }
  }

 private:
  std::vector<tcsa::net::Fd> writers_;
  std::vector<tcsa::net::Fd> readers_;
  std::vector<tcsa::net::OutQueue> queues_;
  std::vector<std::string> pendings_;
  std::vector<char> scratch_;
};

struct SlotCost {
  std::size_t bytes_copied = 0;  // bytes memcpy'd into egress buffers
  std::size_t syscalls = 0;      // flush syscalls issued
};

SlotCost slot_shared(Rig& rig, std::uint64_t slot) {
  SlotCost cost;
  tcsa::net::SharedBuf frames[kChannels];
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    std::string bytes = encode_page_frame(slot, static_cast<std::uint32_t>(ch));
    cost.bytes_copied += bytes.size();
    frames[ch] = tcsa::net::SharedBuf::wrap(std::move(bytes));
  }
  for (std::size_t i = 0; i < rig.sessions(); ++i)
    for (std::size_t ch = 0; ch < kChannels; ++ch)
      rig.queue(i).push(frames[ch]);
  for (std::size_t i = 0; i < rig.sessions(); ++i)
    cost.syscalls +=
        tcsa::net::flush_queue(rig.writer(i), rig.queue(i)).syscalls;
  rig.drain_all();
  return cost;
}

SlotCost slot_slotbuf(Rig& rig, std::uint64_t slot) {
  SlotCost cost;
  std::string bytes;
  bytes.reserve(kChannels * tcsa::net::kPageFrameSize);
  for (std::uint32_t ch = 0; ch < kChannels; ++ch)
    tcsa::net::append(bytes, tcsa::net::PageMsg{slot, 1, ch, ch});
  cost.bytes_copied += bytes.size();
  const tcsa::net::SharedBuf frames =
      tcsa::net::SharedBuf::wrap(std::move(bytes));
  for (std::size_t i = 0; i < rig.sessions(); ++i) rig.queue(i).push(frames);
  for (std::size_t i = 0; i < rig.sessions(); ++i)
    cost.syscalls +=
        tcsa::net::flush_queue(rig.writer(i), rig.queue(i)).syscalls;
  rig.drain_all();
  return cost;
}

SlotCost slot_copy(Rig& rig, std::uint64_t slot) {
  SlotCost cost;
  std::string frames[kChannels];
  for (std::size_t ch = 0; ch < kChannels; ++ch)
    frames[ch] = encode_page_frame(slot, static_cast<std::uint32_t>(ch));
  for (std::size_t i = 0; i < rig.sessions(); ++i) {
    std::string& pending = rig.pending(i);
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      pending.append(frames[ch]);
      cost.bytes_copied += frames[ch].size();
    }
    while (!pending.empty()) {
      const ssize_t n = ::send(rig.writer(i), pending.data(), pending.size(),
                               MSG_NOSIGNAL);
      ++cost.syscalls;
      if (n <= 0) break;  // cannot happen with a drained 1 MiB buffer
      pending.erase(0, static_cast<std::size_t>(n));
    }
  }
  rig.drain_all();
  return cost;
}

template <class SlotFn>
void attach_egress_counters(benchmark::State& state, Rig& rig,
                            SlotFn&& run_slot) {
  SlotCost total;
  for (std::size_t slot = 0; slot < kCounterSlots; ++slot) {
    const SlotCost cost = run_slot(slot);
    total.bytes_copied += cost.bytes_copied;
    total.syscalls += cost.syscalls;
  }
  const double slots = static_cast<double>(kCounterSlots);
  state.counters["egress_bytes_copied_total"] =
      benchmark::Counter(static_cast<double>(total.bytes_copied));
  state.counters["egress_flush_syscalls_total"] =
      benchmark::Counter(static_cast<double>(total.syscalls));
  state.counters["egress_fanout_frames_total"] = benchmark::Counter(
      static_cast<double>(kCounterSlots * kChannels * rig.sessions()));
  state.counters["bytes_copied_per_slot"] =
      benchmark::Counter(static_cast<double>(total.bytes_copied) / slots);
  state.counters["syscalls_per_slot"] =
      benchmark::Counter(static_cast<double>(total.syscalls) / slots);
}

void BM_FanoutSharedBuf(benchmark::State& state) {
  Rig rig(static_cast<std::size_t>(state.range(0)));
  std::uint64_t slot = 0;
  for (auto _ : state) benchmark::DoNotOptimize(slot_shared(rig, slot++));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kChannels * rig.sessions()));
  attach_egress_counters(state, rig,
                         [&](std::size_t s) { return slot_shared(rig, s); });
}
BENCHMARK(BM_FanoutSharedBuf)->Arg(8)->Arg(64);

void BM_FanoutSlotBuf(benchmark::State& state) {
  Rig rig(static_cast<std::size_t>(state.range(0)));
  std::uint64_t slot = 0;
  for (auto _ : state) benchmark::DoNotOptimize(slot_slotbuf(rig, slot++));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kChannels * rig.sessions()));
  attach_egress_counters(state, rig,
                         [&](std::size_t s) { return slot_slotbuf(rig, s); });
}
BENCHMARK(BM_FanoutSlotBuf)->Arg(8)->Arg(64);

void BM_FanoutCopy(benchmark::State& state) {
  Rig rig(static_cast<std::size_t>(state.range(0)));
  std::uint64_t slot = 0;
  for (auto _ : state) benchmark::DoNotOptimize(slot_copy(rig, slot++));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kChannels * rig.sessions()));
  attach_egress_counters(state, rig,
                         [&](std::size_t s) { return slot_copy(rig, s); });
}
BENCHMARK(BM_FanoutCopy)->Arg(8)->Arg(64);

// ----------------------------------------------- io_uring batched fan-out

/// One slot flushed through the ring: a sendmsg SQE per dirty session,
/// windowed by ring capacity, one io_uring_enter per window (submit and
/// wait fused). Returns the enter count.
std::size_t slot_uring(Rig& rig, tcsa::net::UringFlusher& ring,
                       std::uint64_t slot) {
  std::size_t enters = 0;
  tcsa::net::SharedBuf frames[kChannels];
  for (std::size_t ch = 0; ch < kChannels; ++ch)
    frames[ch] = tcsa::net::SharedBuf::wrap(
        encode_page_frame(slot, static_cast<std::uint32_t>(ch)));
  for (std::size_t i = 0; i < rig.sessions(); ++i)
    for (std::size_t ch = 0; ch < kChannels; ++ch)
      rig.queue(i).push(frames[ch]);

  const std::size_t n = rig.sessions();
  std::vector<iovec> iov(n * kChannels);
  std::vector<msghdr> msgs(n);
  std::vector<tcsa::net::UringFlusher::Completion> cqes;
  std::size_t next = 0;
  while (next < n) {
    const std::size_t begin = next;
    while (next < n && ring.staged() < ring.capacity()) {
      msghdr& msg = msgs[next];
      msg = msghdr{};
      msg.msg_iov = &iov[next * kChannels];
      msg.msg_iovlen =
          rig.queue(next).gather(&iov[next * kChannels], kChannels);
      if (!ring.push_sendmsg(rig.writer(next), &msg, next)) break;
      ++next;
    }
    enters += ring.submit_and_wait(static_cast<unsigned>(next - begin));
    cqes.clear();
    ring.harvest(cqes);
    for (const tcsa::net::UringFlusher::Completion& cqe : cqes)
      if (cqe.res > 0)
        rig.queue(cqe.user_data).consume(static_cast<std::size_t>(cqe.res));
  }
  rig.drain_all();
  return enters;
}

/// The syscalls-per-flushed-byte claim: K dirty sessions cost
/// ceil(K / ring capacity) enter syscalls instead of K sendmsg calls.
/// When the kernel offers no io_uring the benchmark still reports (so the
/// committed counter baseline stays comparable machine-to-machine via the
/// egress_uring_supported marker) but emits no gated _total counters.
void BM_FanoutUring(benchmark::State& state) {
  Rig rig(static_cast<std::size_t>(state.range(0)));
  if (!tcsa::net::UringFlusher::supported()) {
    for (auto _ : state) {
    }
    state.counters["egress_uring_supported"] = benchmark::Counter(0);
    return;
  }
  tcsa::net::UringFlusher ring(kBenchRingEntries);
  std::uint64_t slot = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(slot_uring(rig, ring, slot++));
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kChannels * rig.sessions()));

  std::size_t enters = 0;
  for (std::size_t s = 0; s < kCounterSlots; ++s)
    enters += slot_uring(rig, ring, s);
  const std::size_t sqes = kCounterSlots * rig.sessions();
  state.counters["egress_uring_supported"] = benchmark::Counter(1);
  state.counters["egress_uring_enter_total"] =
      benchmark::Counter(static_cast<double>(enters));
  state.counters["egress_uring_sqe_batched_total"] =
      benchmark::Counter(static_cast<double>(sqes));
  state.counters["uring_enters_per_slot"] = benchmark::Counter(
      static_cast<double>(enters) / static_cast<double>(kCounterSlots));
}
BENCHMARK(BM_FanoutUring)->Arg(8)->Arg(64);

// ------------------------------------------------- backlog drain syscalls

std::vector<tcsa::net::SharedBuf> backlog_frames() {
  std::vector<tcsa::net::SharedBuf> frames;
  frames.reserve(kBacklogChunks);
  for (std::size_t i = 0; i < kBacklogChunks; ++i)
    frames.push_back(tcsa::net::SharedBuf::wrap(
        encode_page_frame(i, static_cast<std::uint32_t>(i % kChannels))));
  return frames;
}

void BM_BacklogFlushVectored(benchmark::State& state) {
  Rig rig(1);
  const std::vector<tcsa::net::SharedBuf> frames = backlog_frames();
  std::size_t syscalls = 0;
  for (auto _ : state) {
    for (const tcsa::net::SharedBuf& frame : frames)
      rig.queue(0).push(frame);
    syscalls = tcsa::net::flush_queue(rig.writer(0), rig.queue(0)).syscalls;
    rig.drain_all();
  }
  // One more pass for the exact counter (identical every pass).
  for (const tcsa::net::SharedBuf& frame : frames) rig.queue(0).push(frame);
  syscalls = tcsa::net::flush_queue(rig.writer(0), rig.queue(0)).syscalls;
  rig.drain_all();
  state.counters["egress_backlog_syscalls_total"] =
      benchmark::Counter(static_cast<double>(syscalls));
  state.counters["egress_backlog_chunks_total"] =
      benchmark::Counter(static_cast<double>(kBacklogChunks));
}
BENCHMARK(BM_BacklogFlushVectored);

void BM_BacklogFlushPerChunk(benchmark::State& state) {
  Rig rig(1);
  const std::vector<tcsa::net::SharedBuf> frames = backlog_frames();
  std::size_t syscalls = 0;
  const auto drain_per_chunk = [&] {
    std::size_t calls = 0;
    for (const tcsa::net::SharedBuf& frame : frames) {
      std::size_t sent = 0;
      while (sent < frame.size()) {
        const ssize_t n = ::send(rig.writer(0), frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        ++calls;
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
    }
    return calls;
  };
  for (auto _ : state) {
    syscalls = drain_per_chunk();
    rig.drain_all();
  }
  syscalls = drain_per_chunk();
  rig.drain_all();
  state.counters["egress_backlog_syscalls_total"] =
      benchmark::Counter(static_cast<double>(syscalls));
  state.counters["egress_backlog_chunks_total"] =
      benchmark::Counter(static_cast<double>(kBacklogChunks));
}
BENCHMARK(BM_BacklogFlushPerChunk);

}  // namespace
