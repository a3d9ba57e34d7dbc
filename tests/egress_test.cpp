// egress_test.cpp — the zero-copy egress primitives: SharedBuf refcounts
// and unique-owner patching, the airing plane's FrameCache patch rule,
// OutQueue chunk accounting and O(1) retirement, vectored flush over a
// backpressured socketpair (partial-send resume and byte-exact ordering),
// and the queued-bytes eviction boundary.
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/framing.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "server/air_server.hpp"
#include "server/frame_cache.hpp"
#include "util/wire.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

/// A kPage frame encoded from scratch, the reference every cached or
/// patched frame must equal byte for byte.
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
  EXPECT_FALSE(null_buf.patch_u64(0, 1));
}

TEST(SharedBuf, PatchRewritesTheWordOnlyForTheSoleOwner) {
  std::string bytes;
  wire_put_u64(bytes, 7);
  wire_put_u32(bytes, 0xdead);
  net::SharedBuf buf = net::SharedBuf::wrap(bytes);

  ASSERT_TRUE(buf.patch_u64(0, 42));
  WireReader patched(buf.view());
  EXPECT_EQ(patched.read_u64(), 42u);
  EXPECT_EQ(patched.read_u32(), 0xdeadu) << "bytes past the word intact";

  // A second handle (a session still queuing the buffer) blocks the patch
  // and leaves every byte untouched.
  net::SharedBuf queued = buf;
  EXPECT_FALSE(buf.patch_u64(0, 99));
  WireReader unchanged(queued.view());
  EXPECT_EQ(unchanged.read_u64(), 42u);

  queued = net::SharedBuf();  // queue drained: sole owner again
  EXPECT_TRUE(buf.patch_u64(0, 99));
}

// The frame-cache contract: reviving a cached kPage frame by patching its
// slot word produces the same bytes a fresh encode would — to the byte.
TEST(SharedBuf, PatchedPageFrameIsByteIdenticalToAFreshEncode) {
  net::SharedBuf cached = net::SharedBuf::wrap(page_frame(100, 7, 2, 41));
  ASSERT_TRUE(cached.patch_u64(net::kFrameHeaderSize, 4242));
  EXPECT_EQ(cached.view(), page_frame(4242, 7, 2, 41));
}

// ------------------------------------------------------------ FrameCache

constexpr std::uint64_t kNoFloor = std::numeric_limits<std::uint64_t>::max();
constexpr const char* kHits = "tcsa_server_frame_cache_hits_total";
constexpr const char* kEncoded = "tcsa_server_frames_encoded_total";

/// Two channels, a cycle of four: page 7 at (0, 1), page 9 at (1, 3).
BroadcastProgram two_page_program() {
  BroadcastProgram program(2, 4);
  program.place(0, 1, 7);
  program.place(1, 3, 9);
  return program;
}

// A cell is patched in place only once the floor has passed its last
// airing and the cache holds the only reference; the patched bytes are
// exactly a fresh encode's.
TEST(FrameCache, PatchesPastTheFloorAsSoleOwnerToFreshEncodeBytes) {
  MetricsDelta metrics;
  const BroadcastProgram program = two_page_program();
  FrameCache cache;
  const char* cell = cache.frame(1, program, 0, 1, 10, kNoFloor).data();
  EXPECT_EQ(metrics.counter(kEncoded), 1u);

  const net::SharedBuf patched = cache.frame(1, program, 0, 1, 14, 11);
  EXPECT_EQ(metrics.counter(kHits), 1u);
  EXPECT_EQ(metrics.counter(kEncoded), 1u);
  EXPECT_EQ(patched.data(), cell) << "a patch rewrites the cached buffer";
  EXPECT_EQ(patched.view(), page_frame(14, 1, 0, 7));
  FrameCache fresh;
  EXPECT_EQ(patched.view(), fresh.frame(1, program, 0, 1, 14, kNoFloor).view());
}

// A reference still held elsewhere (a session queue) or a floor that has
// not passed the cell's last airing (a worker loop may still hold the slot
// token) each force a fresh encode — and the held bytes never change.
TEST(FrameCache, AHeldReferenceOrAnUnpassedFloorForcesAFreshEncode) {
  MetricsDelta metrics;
  const BroadcastProgram program = two_page_program();
  FrameCache cache;
  net::SharedBuf held = cache.frame(1, program, 1, 3, 10, kNoFloor);
  net::SharedBuf next = cache.frame(1, program, 1, 3, 14, kNoFloor);
  EXPECT_NE(next.data(), held.data());
  EXPECT_EQ(held.view(), page_frame(10, 1, 1, 9)) << "queued bytes changed";
  EXPECT_EQ(next.view(), page_frame(14, 1, 1, 9));
  EXPECT_EQ(metrics.counter(kEncoded), 2u);

  const char* cell = next.data();
  held = net::SharedBuf();
  next = net::SharedBuf();
  // Sole owner again, but the floor equals the last airing: not yet safe.
  const net::SharedBuf again = cache.frame(1, program, 1, 3, 18, 14);
  EXPECT_NE(again.data(), cell);
  EXPECT_EQ(again.view(), page_frame(18, 1, 1, 9));
  EXPECT_EQ(metrics.counter(kEncoded), 3u);
  EXPECT_EQ(metrics.counter(kHits), 0u);
}

// A new generation resets every cell — even one the floor and refcount
// would let it patch — and adopts the new program's shape.
TEST(FrameCache, ANewGenerationNeverReturnsTheOldGenerationsBytes) {
  MetricsDelta metrics;
  const BroadcastProgram program = two_page_program();
  FrameCache cache;
  cache.frame(1, program, 0, 1, 10, kNoFloor);

  BroadcastProgram wider(3, 4);
  wider.place(0, 1, 7);
  wider.place(2, 3, 11);
  EXPECT_EQ(cache.frame(2, wider, 0, 1, 14, kNoFloor).view(),
            page_frame(14, 2, 0, 7));
  EXPECT_EQ(cache.frame(2, wider, 2, 3, 16, kNoFloor).view(),
            page_frame(16, 2, 2, 11));
  EXPECT_EQ(metrics.counter(kHits), 0u);
  EXPECT_EQ(metrics.counter(kEncoded), 3u);
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
