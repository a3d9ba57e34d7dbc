// egress_test.cpp — the zero-copy egress primitives: SharedBuf refcounts,
// OutQueue chunk accounting and O(1) retirement, vectored flush over a
// backpressured socketpair (partial-send resume and byte-exact ordering),
// what a delivery shard queues for a full-mask and a one-channel session,
// and the queued-bytes eviction boundary.
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"
#include "server/loop_shard.hpp"

using namespace tcsa;

namespace {

/// A kPage frame encoded from scratch.
std::string page_frame(std::uint64_t slot, std::uint32_t generation,
                       std::uint32_t channel, PageId page) {
  return net::encode(net::PageMsg{slot, generation, channel, page});
}

// ------------------------------------------------------------- SharedBuf

TEST(SharedBuf, SharesBytesByReferenceAcrossCopies) {
  net::SharedBuf a = net::SharedBuf::wrap("broadcast");
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a.view(), "broadcast");

  net::SharedBuf b = a;
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.data(), a.data()) << "copy must alias, not duplicate";

  net::SharedBuf null_buf;
  EXPECT_FALSE(static_cast<bool>(null_buf));
  EXPECT_EQ(null_buf.size(), 0u);
}

// -------------------------------------------------------------- OutQueue

TEST(OutQueue, AccountsBytesAndIgnoresEmptyBuffers) {
  net::OutQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.push(net::SharedBuf::wrap("abcd"));
  queue.push(net::SharedBuf::wrap(""));  // no zero-length iovecs
  queue.push(net::SharedBuf::wrap("efghij"));
  EXPECT_EQ(queue.chunks(), 2u);
  EXPECT_EQ(queue.bytes(), 10u);

  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bytes(), 0u);
}

TEST(OutQueue, ConsumeRetiresWholeChunksInOrderAndAdvancesPartials) {
  net::OutQueue queue;
  queue.push(net::SharedBuf::wrap("aaaa"));    // 4
  queue.push(net::SharedBuf::wrap("bbbbbb"));  // 6
  queue.push(net::SharedBuf::wrap("cc"));      // 2

  // 4 + 3: the first chunk retires whole, the second goes partial.
  EXPECT_EQ(queue.consume(7), 4u);
  EXPECT_EQ(queue.chunks(), 2u);
  EXPECT_EQ(queue.bytes(), 5u);
  EXPECT_EQ(queue.front().offset, 3u);
  EXPECT_EQ(queue.front().buf.view(), "bbbbbb");

  // The partial chunk's remaining 3 bytes retire its FULL size (each
  // chunk's bytes are reported exactly once, at final retirement).
  EXPECT_EQ(queue.consume(3), 6u);
  EXPECT_EQ(queue.front().buf.view(), "cc");
  EXPECT_EQ(queue.consume(2), 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(OutQueue, GatherIsBoundedAndSkipsSentPrefixes) {
  net::OutQueue queue;
  for (int i = 0; i < 10; ++i)
    queue.push(net::SharedBuf::wrap(std::string(8, static_cast<char>('a' + i))));
  queue.consume(3);  // front chunk now partial

  iovec iov[4];
  ASSERT_EQ(queue.gather(iov, 4), 4u);
  EXPECT_EQ(iov[0].iov_len, 5u) << "front iovec starts at the unsent offset";
  EXPECT_EQ(std::string(static_cast<const char*>(iov[0].iov_base), 5),
            "aaaaa");
  EXPECT_EQ(iov[1].iov_len, 8u);

  iovec all[64];
  EXPECT_EQ(queue.gather(all, 64), 10u);
}

// ------------------------------------------------- vectored flush + resume

struct SocketPair {
  net::Fd writer;
  net::Fd reader;
};

SocketPair make_pair_with_sndbuf(int sndbuf_bytes) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketPair pair{net::Fd(fds[0]), net::Fd(fds[1])};
  net::set_nonblocking(pair.writer.get(), true);
  net::set_nonblocking(pair.reader.get(), true);
  if (sndbuf_bytes > 0) net::set_send_buffer(pair.writer.get(), sndbuf_bytes);
  return pair;
}

std::string read_up_to(int fd, std::size_t cap) {
  std::string out;
  std::vector<char> buffer(4096);
  while (out.size() < cap) {
    const ssize_t n = ::recv(fd, buffer.data(),
                             std::min(buffer.size(), cap - out.size()), 0);
    if (n > 0) {
      out.append(buffer.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EAGAIN or EOF
  }
  return out;
}

TEST(FlushQueue, DrainsAWholeBacklogThroughBoundedIovecBatches) {
  SocketPair pair = make_pair_with_sndbuf(1 << 20);
  net::OutQueue queue;
  std::string expected;
  // More chunks than one sendmsg batch may carry, to exercise the bound.
  const std::size_t chunk_count = net::kFlushBatch * 2 + 17;
  for (std::size_t i = 0; i < chunk_count; ++i) {
    std::string chunk(32, static_cast<char>('A' + (i % 26)));
    expected += chunk;
    queue.push(net::SharedBuf::wrap(std::move(chunk)));
  }

  const net::FlushResult result = net::flush_queue(pair.writer.get(), queue);
  EXPECT_EQ(result.error, 0);
  EXPECT_FALSE(result.would_block);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(result.bytes_sent, expected.size());
  EXPECT_EQ(result.bytes_retired, expected.size());
  // ceil(chunks / batch) syscalls, not one per chunk.
  EXPECT_LE(result.syscalls,
            (chunk_count + net::kFlushBatch - 1) / net::kFlushBatch);
  EXPECT_EQ(result.eagain_calls, 0u) << "no probes on an unblocked drain";
  EXPECT_EQ(read_up_to(pair.reader.get(), expected.size()), expected);
}

TEST(FlushQueue, PartialSendResumesInOrderAcrossATinySendBuffer) {
  SocketPair pair = make_pair_with_sndbuf(4096);
  net::OutQueue queue;
  std::string expected;
  for (std::size_t i = 0; i < 64; ++i) {
    std::string chunk(4096, static_cast<char>('a' + (i % 26)));
    expected += chunk;
    queue.push(net::SharedBuf::wrap(std::move(chunk)));
  }

  // First flush hits backpressure: the kernel accepts a prefix and the
  // queue keeps exactly the rest, bytes() matching to the byte.
  const net::FlushResult first = net::flush_queue(pair.writer.get(), queue);
  EXPECT_EQ(first.error, 0);
  ASSERT_TRUE(first.would_block) << "SO_SNDBUF too large to backpressure";
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.bytes(), expected.size() - first.bytes_sent);
  EXPECT_GE(first.bytes_sent, first.bytes_retired)
      << "a partially sent chunk must not count as retired";

  // Drain reader and flush alternately; the reassembled stream must be
  // byte-identical to the chunks in push order (retirement never reorders
  // or re-sends across partial boundaries).
  std::string received;
  std::size_t flushes = 0;
  while (received.size() < expected.size()) {
    received += read_up_to(pair.reader.get(), expected.size());
    if (!queue.empty()) {
      const net::FlushResult r = net::flush_queue(pair.writer.get(), queue);
      ASSERT_EQ(r.error, 0);
      ++flushes;
    }
    ASSERT_LT(flushes, 10'000u) << "no forward progress";
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(received, expected);
}

// The split ledger: productive calls and would-block probes never land in
// the same counter, so syscalls-per-flushed-byte stays honest for a
// session that probes a full socket every slot.
TEST(FlushQueue, LedgersWouldBlockProbesSeparatelyFromProductiveCalls) {
  SocketPair pair = make_pair_with_sndbuf(4096);
  net::OutQueue queue;
  for (int i = 0; i < 64; ++i)
    queue.push(net::SharedBuf::wrap(std::string(4096, 'x')));

  // The flush that fills the socket: some productive calls, then exactly
  // one refused probe ends the drain.
  const net::FlushResult first = net::flush_queue(pair.writer.get(), queue);
  ASSERT_TRUE(first.would_block) << "SO_SNDBUF too large to backpressure";
  EXPECT_GT(first.syscalls, 0u);
  EXPECT_EQ(first.eagain_calls, 1u);

  // The socket is still full: re-flushing is pure probe overhead — zero
  // productive calls, zero bytes, one EAGAIN.
  const net::FlushResult probe = net::flush_queue(pair.writer.get(), queue);
  EXPECT_TRUE(probe.would_block);
  EXPECT_EQ(probe.bytes_sent, 0u);
  EXPECT_EQ(probe.syscalls, 0u);
  EXPECT_EQ(probe.eagain_calls, 1u);
}

TEST(FlushQueue, ReportsAFatalErrorAndLeavesTheQueueIntact) {
  SocketPair pair = make_pair_with_sndbuf(0);
  net::OutQueue queue;
  queue.push(net::SharedBuf::wrap("doomed"));
  pair.reader.reset();  // peer gone: EPIPE, suppressed signal

  const net::FlushResult result = net::flush_queue(pair.writer.get(), queue);
  EXPECT_EQ(result.error, EPIPE);
  EXPECT_EQ(result.bytes_sent, 0u);
  EXPECT_EQ(result.syscalls, 1u) << "a fatal call is productive-path, not a probe";
  EXPECT_EQ(result.eagain_calls, 0u);
  EXPECT_EQ(queue.bytes(), 6u) << "fatal error must not drop queued bytes";
}

// ---------------------------------------------- slot delivery per mask

constexpr std::size_t kRigChannels = 4;

/// The rig's generation: one column airing page 10 + ch on channel ch.
std::shared_ptr<const Generation> rig_generation() {
  static const auto generation = [] {
    BroadcastProgram program(kRigChannels, 1);
    for (std::uint32_t ch = 0; ch < kRigChannels; ++ch)
      program.place(ch, 0, 10 + ch);
    return std::make_shared<const Generation>(
        Generation{1, make_workload({1}, {14}), std::move(program), 0, 0, ""});
  }();
  return generation;
}

/// One aired slot as the airing plane ships it: all four channels' kPage
/// frames back to back, in channel order, in one buffer.
SlotFrames four_channel_slot(std::uint64_t slot) {
  SlotFrames frames;
  frames.slot = slot;
  frames.generation = rig_generation();
  std::string bytes;
  for (std::uint32_t ch = 0; ch < kRigChannels; ++ch) {
    bytes += page_frame(slot, 1, ch, 10 + ch);
    frames.aired_mask |= 1ull << ch;
  }
  frames.bytes = net::SharedBuf::wrap(std::move(bytes));
  return frames;
}

/// One delivery shard on its own loop, driven slot by slot from the test
/// thread, with one client tuned to `mask` that reads nothing until
/// drain(): once its socket fills, every slot's chunks stay queued.
class ShardRig {
 public:
  explicit ShardRig(std::uint64_t mask) {
    common_.max_session_buffer = 1 << 20;
    common_.session_send_buffer = 4096;
    net::Fd listener = net::listen_tcp("127.0.0.1", 0);
    const std::uint16_t port = net::local_port(listener.get());
    shard_ = std::make_unique<LoopShard>(0, loop_, std::move(listener),
                                         common_, rig_generation());
    shard_->listen();
    client_ = net::connect_tcp("127.0.0.1", port);
    const int small = 4096;
    EXPECT_EQ(::setsockopt(client_.get(), SOL_SOCKET, SO_RCVBUF, &small,
                           sizeof(small)),
              0);
    poll_until([&] { return shard_->session_count.load() == 1; });
    const std::string tune = net::encode(net::TuneMsg{mask});
    EXPECT_EQ(::send(client_.get(), tune.data(), tune.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(tune.size()));
    poll_until([&] { return shard_->audience.load() == mask; });
  }

  LoopShard& shard() { return *shard_; }

  /// Delivers slots until the session's socket is full and its queue has
  /// stayed backed up for a while; returns the next slot to deliver.
  std::uint64_t fill() {
    std::uint64_t slot = 0;
    while (shard_->queued_bytes.load() == 0 && slot < 100'000)
      shard_->deliver(four_channel_slot(slot++));
    EXPECT_GT(shard_->queued_bytes.load(), 0u) << "socket never filled";
    for (const std::uint64_t end = slot + 64; slot < end;)
      shard_->deliver(four_channel_slot(slot++));
    return slot;
  }

  /// Everything the client receives after its hello, read until it holds
  /// `expected` bytes (the shard flushes the rest on EPOLLOUT).
  std::string drain(std::size_t expected) {
    const std::size_t hello =
        rig_generation()->hello(net::FrameType::kHello, 0, 0).size();
    net::set_nonblocking(client_.get(), true);
    std::string stream;
    std::vector<char> buffer(1 << 16);
    for (int spins = 0; stream.size() < hello + expected && spins < 20'000;
         ++spins) {
      const ssize_t n = ::recv(client_.get(), buffer.data(), buffer.size(), 0);
      if (n > 0) stream.append(buffer.data(), static_cast<std::size_t>(n));
      loop_.poll(1000);
    }
    EXPECT_EQ(stream.size(), hello + expected);
    return stream.size() >= hello ? stream.substr(hello) : std::string();
  }

 private:
  template <class Done>
  void poll_until(Done done) {
    for (int spins = 0; !done() && spins < 5000; ++spins) loop_.poll(1000);
    EXPECT_TRUE(done());
  }

  net::EventLoop loop_;
  ShardCommon common_;
  std::unique_ptr<LoopShard> shard_;
  net::Fd client_;
};

// A session tuned to every aired channel queues the slot's one buffer as
// one chunk: its queue shares the airing plane's bytes, and its stream is
// the slot buffers back to back.
TEST(SlotDelivery, AFullMaskSessionQueuesTheWholeSlotBufferAsOneChunk) {
  ShardRig rig(net::kAllChannels);
  std::uint64_t slot = rig.fill();
  const SlotFrames held = four_channel_slot(slot++);
  rig.shard().deliver(held);
  EXPECT_EQ(held.bytes.use_count(), 2) << "the queue must share the slot buffer";

  std::string expected;
  for (std::uint64_t s = 0; s < slot; ++s)
    expected += four_channel_slot(s).bytes.view();
  EXPECT_EQ(rig.drain(expected.size()), expected);
}

// A one-channel session never pins the slot buffer: its queue holds this
// loop's copy of its channel's frame, and its stream is exactly that
// channel's frames — no other channel's bytes.
TEST(SlotDelivery, AOneChannelSessionQueuesOnlyItsChannelsBytes) {
  constexpr std::size_t kChannel = 2;
  ShardRig rig(1ull << kChannel);
  std::uint64_t slot = rig.fill();
  std::vector<SlotFrames> held;
  for (int i = 0; i < 8; ++i) {
    held.push_back(four_channel_slot(slot++));
    rig.shard().deliver(held.back());
  }
  for (const SlotFrames& frames : held)
    EXPECT_EQ(frames.bytes.use_count(), 1)
        << "a one-channel queue pinned the whole slot buffer";

  std::string expected;
  for (std::uint64_t s = 0; s < slot; ++s) {
    const SlotFrames frames = four_channel_slot(s);
    ASSERT_EQ(frames.frame(kChannel).size(), net::kPageFrameSize);
    expected += frames.frame(kChannel);
  }
  EXPECT_EQ(rig.drain(expected.size()), expected);
}

// ------------------------------------------------------ eviction boundary

TEST(Eviction, FiresStrictlyAboveTheQueuedBytesCap) {
  constexpr std::size_t cap = 2048;
  EXPECT_FALSE(should_evict(0, cap));
  EXPECT_FALSE(should_evict(cap - 1, cap));
  EXPECT_FALSE(should_evict(cap, cap)) << "exactly at the cap stays";
  EXPECT_TRUE(should_evict(cap + 1, cap));
  EXPECT_FALSE(should_evict(0, 0));
  EXPECT_TRUE(should_evict(1, 0));
}

}  // namespace
