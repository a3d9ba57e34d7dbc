// uring_test.cpp — the io_uring batched-egress backend: one-syscall batch
// submission with byte-exact delivery, inline -EAGAIN completions and
// resume, SQ-window backpressure when a batch exceeds ring capacity, and
// the fallback (a forced-ENOSYS runtime probe puts the server on sendmsg).
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"
#include "net/out_queue.hpp"
#include "net/shared_buf.hpp"
#include "net/socket.hpp"
#include "net/uring_flush.hpp"
#include "server/air_server.hpp"
#include "server/tune_client.hpp"

#include "server_harness.hpp"

using namespace tcsa;

namespace {

Workload paper_workload() { return make_workload({2, 4, 8}, {3, 5, 3}); }

/// Scoped TCSA_URING_FORCE_ENOSYS=1 — the runtime-fallback switch the
/// degradation-ladder tests flip (supported() re-reads it every call).
struct ForcedEnosys {
  ForcedEnosys() { ::setenv("TCSA_URING_FORCE_ENOSYS", "1", 1); }
  ~ForcedEnosys() { ::unsetenv("TCSA_URING_FORCE_ENOSYS"); }
};

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

// --------------------------------------------------- ring-level primitives

// One io_uring_enter moves one frame to each of many targets, byte-exact.
TEST(UringFlusher, SubmitsAWholeFleetInOneSyscall) {
  if (!net::UringFlusher::supported()) GTEST_SKIP() << "io_uring unavailable";
  constexpr std::size_t kTargets = 10;
  net::UringFlusher ring(64);
  EXPECT_GE(ring.capacity(), 64u);

  std::vector<SocketPair> pairs;
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < kTargets; ++i) {
    pairs.push_back(make_pair_with_sndbuf(1 << 20));
    payloads.push_back(std::string(512 + i, static_cast<char>('A' + i)));
  }
  std::vector<iovec> iov(kTargets);
  std::vector<msghdr> msgs(kTargets);
  for (std::size_t i = 0; i < kTargets; ++i) {
    iov[i] = {payloads[i].data(), payloads[i].size()};
    msgs[i] = msghdr{};
    msgs[i].msg_iov = &iov[i];
    msgs[i].msg_iovlen = 1;
    ASSERT_TRUE(ring.push_sendmsg(pairs[i].writer.get(), &msgs[i], i));
  }
  EXPECT_EQ(ring.staged(), kTargets);

  const std::size_t enters = ring.submit_and_wait(kTargets);
  EXPECT_EQ(enters, 1u) << "submit and wait must share one enter syscall";
  EXPECT_EQ(ring.staged(), 0u);

  std::vector<net::UringFlusher::Completion> cqes;
  ASSERT_EQ(ring.harvest(cqes), kTargets);
  EXPECT_EQ(ring.inflight(), 0u);
  std::vector<bool> seen(kTargets, false);
  for (const net::UringFlusher::Completion& cqe : cqes) {
    ASSERT_LT(cqe.user_data, kTargets);
    EXPECT_FALSE(seen[cqe.user_data]) << "duplicate completion";
    seen[cqe.user_data] = true;
    EXPECT_EQ(cqe.res,
              static_cast<std::int32_t>(payloads[cqe.user_data].size()));
  }
  for (std::size_t i = 0; i < kTargets; ++i)
    EXPECT_EQ(read_up_to(pairs[i].reader.get(), payloads[i].size()),
              payloads[i])
        << "target " << i << " bytes differ";
}

// A full socket completes inline with -EAGAIN in the CQE (MSG_DONTWAIT, no
// io-wq punt); once the reader drains, the same msghdr resumes cleanly.
TEST(UringFlusher, FullSocketYieldsInlineEagainAndResumes) {
  if (!net::UringFlusher::supported()) GTEST_SKIP() << "io_uring unavailable";
  net::UringFlusher ring(8);
  SocketPair pair = make_pair_with_sndbuf(4096);

  // Fill the send buffer the classic way until the kernel refuses.
  const std::string block(4096, 'x');
  while (true) {
    const ssize_t n =
        ::send(pair.writer.get(), block.data(), block.size(), MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ASSERT_FALSE(n < 0 && errno != EINTR) << std::strerror(errno);
  }

  std::string payload(64, 'y');
  iovec iov{payload.data(), payload.size()};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  ASSERT_TRUE(ring.push_sendmsg(pair.writer.get(), &msg, 1));
  ring.submit_and_wait(1);
  std::vector<net::UringFlusher::Completion> cqes;
  ASSERT_EQ(ring.harvest(cqes), 1u);
  EXPECT_EQ(cqes.front().res, -EAGAIN)
      << "a would-block send must complete inline, not punt to a worker";

  // Drain everything queued ahead, then the same SQE goes through.
  while (!read_up_to(pair.reader.get(), 1 << 20).empty()) {
  }
  cqes.clear();
  ASSERT_TRUE(ring.push_sendmsg(pair.writer.get(), &msg, 2));
  ring.submit_and_wait(1);
  ASSERT_EQ(ring.harvest(cqes), 1u);
  EXPECT_EQ(cqes.front().res, static_cast<std::int32_t>(payload.size()));
  EXPECT_EQ(read_up_to(pair.reader.get(), payload.size()), payload);
}

// When the batch outgrows the ring, push_sendmsg reports SQ-full and the
// caller windows: submit, harvest, continue. Every byte still lands.
TEST(UringFlusher, WindowsABatchLargerThanTheRing) {
  if (!net::UringFlusher::supported()) GTEST_SKIP() << "io_uring unavailable";
  net::UringFlusher ring(2);
  ASSERT_GE(ring.capacity(), 2u);
  const std::size_t window = ring.capacity();
  const std::size_t targets = window * 2 + 1;

  std::vector<SocketPair> pairs;
  std::vector<std::string> payloads;
  std::vector<iovec> iov(targets);
  std::vector<msghdr> msgs(targets);
  for (std::size_t i = 0; i < targets; ++i) {
    pairs.push_back(make_pair_with_sndbuf(1 << 20));
    payloads.push_back(std::string(128, static_cast<char>('a' + i % 26)));
    iov[i] = {payloads[i].data(), payloads[i].size()};
    msgs[i] = msghdr{};
    msgs[i].msg_iov = &iov[i];
    msgs[i].msg_iovlen = 1;
  }

  std::vector<net::UringFlusher::Completion> cqes;
  std::size_t pushed = 0;
  std::size_t full_rejections = 0;
  while (pushed < targets) {
    if (!ring.push_sendmsg(pairs[pushed].writer.get(), &msgs[pushed],
                           pushed)) {
      ++full_rejections;
      ring.submit_and_wait(ring.staged());
      ring.harvest(cqes);
      continue;
    }
    ++pushed;
  }
  if (ring.staged() > 0) {
    ring.submit_and_wait(ring.staged());
    ring.harvest(cqes);
  }
  EXPECT_GT(full_rejections, 0u) << "the batch never hit the SQ bound";
  ASSERT_EQ(cqes.size(), targets);
  for (std::size_t i = 0; i < targets; ++i)
    EXPECT_EQ(read_up_to(pairs[i].reader.get(), payloads[i].size()),
              payloads[i]);
}

// ---------------------------------------------------------------- fallback

TEST(UringFlusher, ForcedEnosysDisablesTheProbeAndConstruction) {
  ForcedEnosys forced;
  EXPECT_FALSE(net::UringFlusher::probe());
  EXPECT_FALSE(net::UringFlusher::supported());
  EXPECT_THROW(net::UringFlusher ring(8), std::runtime_error);
}

// --------------------------------------------------- server integration

// With the backend forced unavailable, the server serves on the classic
// sendmsg path: same wire, same deadlines, uring_active() false.
TEST(UringServer, AutoModeFallsBackToSendmsgWhenUnavailable) {
  ForcedEnosys forced;
  AirServerConfig config;
  config.slot_us = 1000;
  config.max_slots = 0;
  MetricsDelta metrics;
  ServerHarness harness(paper_workload(), config);
  EXPECT_FALSE(harness.server().uring_active());

  TuneClient client(harness.client_options(net::kAllChannels));
  client.run(30);
  const TuneSummary summary = client.summary();
  EXPECT_GE(summary.slots_seen, 30u);
  EXPECT_EQ(summary.deadline_misses, 0u);
  EXPECT_EQ(metrics.counter("tcsa_server_uring_enter_total"), 0u);
}

// The batched path end to end: where the kernel offers io_uring, a sharded
// server takes the ring and airs a broadcast that reconstructs to a valid
// program, and the enter/SQE counters show real batching (strictly fewer
// syscalls than sends).
TEST(UringServer, BatchedEgressServesAValidBroadcast) {
  if (!net::UringFlusher::supported()) GTEST_SKIP() << "io_uring unavailable";
  AirServerConfig config;
  config.slot_us = 400;
  config.max_slots = 600;
  config.loops = 2;
  MetricsDelta metrics;
  ServerHarness harness(paper_workload(), config);
  ASSERT_TRUE(harness.server().uring_active());

  TuneClient::Options options = harness.client_options(net::kAllChannels);
  options.record_pages = true;
  TuneClient recorder(options);
  recorder.run(0);
  EXPECT_EQ(recorder.summary().deadline_misses, 0u);

  const std::vector<ReceivedPage>& pages = recorder.pages();
  ASSERT_FALSE(pages.empty());
  std::uint64_t first = pages.front().slot;
  for (const ReceivedPage& page : pages) first = std::min(first, page.slot);
  BroadcastProgram program(recorder.channels(), recorder.cycle_length());
  for (const ReceivedPage& page : pages) {
    if (page.slot < first || page.slot >= first + recorder.cycle_length())
      continue;
    program.place(static_cast<SlotCount>(page.channel),
                  static_cast<SlotCount>(page.slot - first), page.page);
  }
  const ValidityReport report = validate_program(program, paper_workload());
  EXPECT_TRUE(report.valid)
      << (report.violations.empty() ? "" : report.violations.front());

  const std::uint64_t enters =
      metrics.counter("tcsa_server_uring_enter_total");
  const std::uint64_t sqes =
      metrics.counter("tcsa_server_uring_sqe_batched_total");
  EXPECT_GT(enters, 0u) << "a ring-backed server never used the ring";
  EXPECT_GE(sqes, enters) << "each enter must carry at least one SQE";
}

}  // namespace
