// net_test.cpp — wire codec, frame (de)coder, payload codec and its
// mutation fuzz, slot clock, and event loop.
#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "model/serialize.hpp"
#include "model/workload.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/http_admin.hpp"
#include "net/loop_group.hpp"
#include "net/slot_clock.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

using namespace tcsa;

namespace {

// ------------------------------------------------------------ wire codec

TEST(Wire, RoundTripsEveryWidth) {
  std::string bytes;
  wire_put_u8(bytes, 0xab);
  wire_put_u16(bytes, 0x1234);
  wire_put_u32(bytes, 0xdeadbeef);
  wire_put_u64(bytes, 0x0123456789abcdefULL);
  wire_put_i64(bytes, -42);
  WireReader reader(bytes);
  EXPECT_EQ(reader.read_u8(), 0xab);
  EXPECT_EQ(reader.read_u16(), 0x1234);
  EXPECT_EQ(reader.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_NO_THROW(reader.expect_done());
}

TEST(Wire, IsLittleEndianOnTheWire) {
  std::string bytes;
  wire_put_u32(bytes, 0x41534354);  // "TCSA"
  EXPECT_EQ(bytes, "TCSA");
}

TEST(Wire, TruncationAndTrailingJunkThrow) {
  std::string bytes;
  wire_put_u32(bytes, 7);
  {
    WireReader reader(bytes);
    EXPECT_THROW(reader.read_u64(), std::invalid_argument);
  }
  {
    WireReader reader(bytes);
    reader.read_u16();
    EXPECT_THROW(reader.expect_done(), std::invalid_argument);
  }
}

// ---------------------------------------------------------------- framing

TEST(Framing, RoundTripsFramesThroughArbitraryChunking) {
  std::string stream;
  net::append_frame(stream, net::FrameType::kTune, "01234567");
  net::append_frame(stream, net::FrameType::kPage, std::string(100, 'x'));
  net::append_frame(stream, net::FrameType::kHello, "");  // empty payload

  // Feed one byte at a time — frames must reassemble regardless of TCP
  // segmentation.
  net::FrameDecoder decoder;
  std::vector<std::pair<net::FrameType, std::string>> got;
  net::Frame frame;
  for (const char c : stream) {
    decoder.feed(std::string_view(&c, 1));
    while (decoder.next(frame))
      got.emplace_back(frame.type, std::string(frame.payload));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, net::FrameType::kTune);
  EXPECT_EQ(got[0].second, "01234567");
  EXPECT_EQ(got[1].first, net::FrameType::kPage);
  EXPECT_EQ(got[1].second, std::string(100, 'x'));
  EXPECT_EQ(got[2].first, net::FrameType::kHello);
  EXPECT_TRUE(got[2].second.empty());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, NeedsMoreBytesUntilTheFrameCompletes) {
  std::string stream;
  net::append_frame(stream, net::FrameType::kTune, "payload");
  net::FrameDecoder decoder;
  net::Frame frame;
  decoder.feed(std::string_view(stream).substr(0, stream.size() - 1));
  EXPECT_FALSE(decoder.next(frame));
  decoder.feed(std::string_view(stream).substr(stream.size() - 1));
  EXPECT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.payload, "payload");
}

TEST(Framing, RejectsCorruptHeaders) {
  const auto poisoned = [](auto mutate) {
    std::string stream;
    net::append_frame(stream, net::FrameType::kPage, "abc");
    mutate(stream);
    net::FrameDecoder decoder;
    decoder.feed(stream);
    net::Frame frame;
    EXPECT_THROW(decoder.next(frame), std::invalid_argument);
  };
  poisoned([](std::string& s) { s[0] = 'X'; });           // bad magic
  poisoned([](std::string& s) { s[4] = 99; });            // unknown version
  poisoned([](std::string& s) { s[5] = 0; });             // type below range
  poisoned([](std::string& s) { s[5] = 100; });           // type above range
  poisoned([](std::string& s) { s[6] = 1; });             // nonzero flags
  poisoned([](std::string& s) { s[11] = 0x7f; });         // length > cap
}

// ---------------------------------------------------------- payload codec

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

/// One message through append() -> FrameDecoder -> decode(): the frame
/// type and every field survive, and a payload cut inside its fixed-size
/// fields is rejected. Fixed-size payloads (no string tail) also reject one
/// trailing byte.
template <class Msg>
void expect_codec_round_trip(const Msg& msg, bool fixed_size) {
  SCOPED_TRACE("frame type " + std::to_string(static_cast<int>(Msg::kType)));
  std::string stream;
  net::append(stream, msg);
  net::FrameDecoder decoder;
  decoder.feed(stream);
  net::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, Msg::kType);
  Msg sent = msg;
  Msg back = net::decode<Msg>(frame.payload);
  EXPECT_TRUE(back.tie() == sent.tie());

  std::string fixed;  // a default message has an empty string tail
  net::append(fixed, Msg{});
  const std::size_t fixed_bytes = fixed.size() - net::kFrameHeaderSize;
  for (std::size_t cut = 0; cut < fixed_bytes; ++cut) {
    EXPECT_THROW(net::decode<Msg>(frame.payload.substr(0, cut)),
                 std::invalid_argument)
        << "cut at " << cut;
  }
  if (fixed_size) {
    EXPECT_THROW(net::decode<Msg>(std::string(frame.payload) + '\0'),
                 std::invalid_argument);
  }
}

TEST(Codec, EveryMessageRoundTripsAndRejectsBadLengths) {
  const std::string workload =
      workload_to_binary(Workload({{2, 3}, {4, 5}}));
  expect_codec_round_trip(
      net::HelloMsg{.generation = 7, .slot_us = 500, .channels = 3,
                    .cycle_length = 8, .next_slot = 1ull << 40,
                    .workload = workload},
      false);
  expect_codec_round_trip(net::TuneMsg{.mask = net::kAllChannels}, true);
  expect_codec_round_trip(
      net::PageMsg{.slot = 99, .generation = 2, .channel = 5, .page = 11},
      true);
  expect_codec_round_trip(
      net::SwapMsg{.channels = 4, .method = 2, .workload = workload}, false);
  expect_codec_round_trip(
      net::SwapReplyMsg{.accepted = true, .generation = 3,
                        .activation_slot = 640, .seam_lateness = -2,
                        .error = "no"},
      false);
  expect_codec_round_trip(net::ReqMsg{.trace_id = 1ull << 63, .page = 4},
                          true);
  expect_codec_round_trip(
      net::ReqAckMsg{.trace_id = 5, .recv_us = 10, .send_us = 12,
                     .next_slot = 30, .page = 4, .expected_slots = 8,
                     .generation = 1},
      true);
  expect_codec_round_trip(
      net::PullMsg{.slot = 31, .generation = 1, .page = 4, .waiters = 3},
      true);
}

TEST(Codec, HelloAlsoTravelsAsAnnounce) {
  net::HelloMsg hello;
  hello.generation = 2;
  std::string stream;
  net::append(stream, hello, net::FrameType::kAnnounce);
  net::FrameDecoder decoder;
  decoder.feed(stream);
  net::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, net::FrameType::kAnnounce);
  EXPECT_EQ(net::decode<net::HelloMsg>(frame.payload).generation, 2u);
}

// Golden bytes captured from the hand-written encoders the codec replaced:
// the wire must not move.
TEST(Codec, PageAndReqAckFramesMatchGoldenBytes) {
  std::string page;
  net::append(page, net::PageMsg{.slot = 0x0102030405060708ull,
                                 .generation = 9,
                                 .channel = 3,
                                 .page = 0x11223344});
  EXPECT_EQ(hex(page),
            "544353410303000014000000"
            "0807060504030201090000000300000044332211");
  EXPECT_EQ(page.substr(net::kPageSlotOffset, 8),
            std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8));

  std::string ack;
  net::append(ack, net::ReqAckMsg{.trace_id = 0xabcdef,
                                  .recv_us = 1000,
                                  .send_us = 1005,
                                  .next_slot = 77,
                                  .page = 42,
                                  .expected_slots = 8,
                                  .generation = 2});
  EXPECT_EQ(hex(ack),
            "54435341030800002c000000"
            "efcdab0000000000e803000000000000ed03000000000000"
            "4d000000000000002a0000000800000002000000");
}

// --------------------------------------------------------- parser fuzzing

/// Decodes `frame` the way its receiving peer would: the payload by its
/// type, and a carried workload through workload_from_binary.
void decode_as_peer(const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kHello:
    case net::FrameType::kAnnounce:
      workload_from_binary(net::decode<net::HelloMsg>(frame.payload).workload);
      return;
    case net::FrameType::kTune:
      net::decode<net::TuneMsg>(frame.payload);
      return;
    case net::FrameType::kPage:
      net::decode<net::PageMsg>(frame.payload);
      return;
    case net::FrameType::kSwap:
      workload_from_binary(net::decode<net::SwapMsg>(frame.payload).workload);
      return;
    case net::FrameType::kSwapReply:
      net::decode<net::SwapReplyMsg>(frame.payload);
      return;
    case net::FrameType::kReq:
      net::decode<net::ReqMsg>(frame.payload);
      return;
    case net::FrameType::kReqAck:
      net::decode<net::ReqAckMsg>(frame.payload);
      return;
    case net::FrameType::kPull:
      net::decode<net::PullMsg>(frame.payload);
      return;
  }
}

/// One random edit: flip a bit, overwrite, insert or erase a byte, or cut
/// the tail.
void mutate(std::string& bytes, Rng& rng) {
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto byte = [&] { return static_cast<char>(rng.uniform_int(0, 255)); };
  switch (bytes.empty() ? 2 : rng.uniform_int(0, 4)) {
    case 0:
      bytes[at(bytes.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      return;
    case 1:
      bytes[at(bytes.size())] = byte();
      return;
    case 2:
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                       at(bytes.size() + 1)),
                   byte());
      return;
    case 3:
      bytes.erase(at(bytes.size()), 1);
      return;
    default:
      bytes.resize(at(bytes.size()));
      return;
  }
}

// Seeded mutation fuzz over every peer-facing parser: FrameDecoder, each
// payload decoder, and the workload decoder behind kHello and kSwap. Every
// malformed input must fail with std::invalid_argument, the one exception
// the session loops catch; anything else (or a crash) fails the test.
TEST(ParserFuzz, MutatedFramesFailOnlyWithInvalidArgument) {
  const std::string workload =
      workload_to_binary(Workload({{1, 2}, {2, 3}, {4, 6}}));
  std::vector<std::string> corpus(8);
  net::append(corpus[0], net::HelloMsg{1, 1000, 2, 4, 0, workload});
  net::append(corpus[1], net::TuneMsg{3});
  net::append(corpus[2], net::PageMsg{5, 1, 1, 2});
  net::append(corpus[3], net::SwapMsg{2, net::kSwapMethodAuto, workload});
  net::append(corpus[4], net::SwapReplyMsg{false, 0, 0, 0, "swap rejected"});
  net::append(corpus[5], net::ReqMsg{9, 1});
  net::append(corpus[6], net::ReqAckMsg{9, 1, 2, 3, 1, 2, 1});
  net::append(corpus[7], net::PullMsg{6, 1, 1, 2});

  Rng rng(20260517);
  std::size_t rejected = 0;
  constexpr int kCases = 20000;
  for (int i = 0; i < kCases; ++i) {
    std::string bytes = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) mutate(bytes, rng);
    // Half the cases skip the header and go straight at the payload
    // decoders, so header checks do not shield them.
    const bool raw_payload = rng.bernoulli(0.5);
    try {
      if (raw_payload) {
        net::Frame frame;
        frame.type = static_cast<net::FrameType>(rng.uniform_int(1, 9));
        frame.payload = std::string_view(bytes).substr(
            std::min(bytes.size(), net::kFrameHeaderSize));
        decode_as_peer(frame);
      } else {
        net::FrameDecoder decoder;
        decoder.feed(bytes);
        net::Frame frame;
        while (decoder.next(frame)) decode_as_peer(frame);
      }
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // The corpus mutates into rejects most of the time; a run that rejects
  // nothing means the mutations never reached a parser.
  EXPECT_GT(rejected, kCases / 4u);
}

TEST(ParserFuzz, MutatedAdminRequestsGetOnlyTheFourStatuses) {
  // The scrape path's first step: method, target and query of whatever a
  // peer sent before its blank line. A handler echoes its query so every
  // byte the parser hands it is touched.
  net::HttpRoutes routes;
  for (const char* path : {"/metrics", "/metrics.json", "/healthz", "/slots"})
    routes.emplace(path, [](std::string_view query) {
      return net::HttpResponse{200, "text/plain", std::string(query)};
    });
  const std::vector<std::string> corpus{
      "GET /metrics HTTP/1.0\r\n\r\n",
      "GET /slots?n=64&from=7 HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "GET /metrics.json HTTP/1.0\r\nAccept: */*\r\n\r\n",
      "POST /healthz HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
      "GET /nope?x HTTP/1.0\r\n\r\n",
  };
  EXPECT_EQ(net::answer_http_request(corpus[0], routes).status, 200);
  EXPECT_EQ(net::answer_http_request(corpus[1], routes).body, "n=64&from=7");
  EXPECT_EQ(net::answer_http_request(corpus[3], routes).status, 405);
  EXPECT_EQ(net::answer_http_request(corpus[4], routes).status, 404);
  EXPECT_EQ(net::answer_http_request("GET /metrics\r\n\r\n", routes).status,
            400);

  Rng rng(20261019);
  std::map<int, int> statuses;
  constexpr int kCases = 20000;
  for (int i = 0; i < kCases; ++i) {
    std::string bytes = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) mutate(bytes, rng);
    const int status = net::answer_http_request(bytes, routes).status;
    ASSERT_TRUE(status == 200 || status == 400 || status == 404 ||
                status == 405)
        << status << " for " << bytes;
    ++statuses[status];
  }
  // Each outcome is reached: the mutations exercise every branch.
  for (const int status : {200, 400, 404, 405})
    EXPECT_GT(statuses[status], kCases / 100) << status;
}

// -------------------------------------------------------------- slot clock

TEST(SlotClock, DeadlinesAreDriftFreeMultiples) {
  net::SlotClock clock(250);
  EXPECT_EQ(clock.slot_us(), 250u);
  EXPECT_EQ(clock.deadline_us(0), 0u);
  EXPECT_EQ(clock.deadline_us(7), 7u * 250u);
  // A slot far in the future is not yet due; its lag is zero.
  EXPECT_GT(clock.until_due_us(1u << 20), 0u);
  EXPECT_EQ(clock.lag_us(1u << 20), 0u);
  // Slot 0's deadline was the epoch: already due, lag grows.
  EXPECT_EQ(clock.until_due_us(0), 0u);
}

// -------------------------------------------------------------- event loop

TEST(EventLoop, PostFromAnotherThreadWakesPoll) {
  net::EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.post([&] { ran.store(true); });
  });
  // Block with no timeout: only the post's wakeup can end this poll.
  while (!ran.load()) loop.poll(-1);
  poster.join();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, TimerFiresAndDispatchesCallback) {
  net::EventLoop loop;
  net::TimerFd timer;
  int fired = 0;
  loop.add(timer.fd(), EPOLLIN, [&](std::uint32_t) {
    timer.acknowledge();
    ++fired;
  });
  timer.arm_after_us(1000);
  while (fired == 0) loop.poll(50'000);
  EXPECT_EQ(fired, 1);
  loop.remove(timer.fd());
  EXPECT_EQ(loop.watched(), 0u);
}

TEST(EventLoop, CallbackMaySafelyRemoveItself) {
  net::EventLoop loop;
  net::TimerFd timer;
  bool removed = false;
  loop.add(timer.fd(), EPOLLIN, [&](std::uint32_t) {
    timer.acknowledge();
    loop.remove(timer.fd());  // self-removal mid-dispatch
    removed = true;
  });
  timer.arm_after_us(0);
  while (!removed) loop.poll(50'000);
  EXPECT_EQ(loop.watched(), 0u);
}

// --------------------------------------------------------------- sockets

TEST(Socket, ListenerResolvesEphemeralPortAndAcceptsNothingWhenIdle) {
  net::Fd listener = net::listen_tcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(net::local_port(listener.get()), 0);
  // Non-blocking accept with no pending connection returns an invalid Fd.
  net::Fd conn = net::accept_connection(listener.get());
  EXPECT_FALSE(conn.valid());
}

TEST(Socket, ConnectRoundTrip) {
  net::Fd listener = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(listener.get());
  net::Fd client = net::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  net::Fd server;
  for (int i = 0; i < 100 && !server.valid(); ++i)
    server = net::accept_connection(listener.get());
  ASSERT_TRUE(server.valid());
}

TEST(Socket, NonBlockingConnectCompletesAndReportsNoError) {
  net::Fd listener = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(listener.get());
  net::Fd client = net::connect_tcp_nonblocking("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  net::EventLoop loop;
  bool completed = false;
  loop.add(client.get(), EPOLLOUT, [&](std::uint32_t) {
    EXPECT_EQ(net::connect_error(client.get()), 0);
    completed = true;
  });
  while (!completed) loop.poll(100'000);
  loop.remove(client.get());
  net::Fd server;
  for (int i = 0; i < 100 && !server.valid(); ++i)
    server = net::accept_connection(listener.get());
  ASSERT_TRUE(server.valid());
}

// --------------------------------------------------- reuseport sharding

TEST(Socket, ReuseportClonesShareOneKernelPortAndSplitAccepts) {
  // The sharding recipe: shard 0 resolves an ephemeral port inside its own
  // reuseport group, clones join at the concrete port.
  net::Fd shard0 = net::listen_reuseport("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(shard0.get());
  ASSERT_GT(port, 0);
  net::Fd shard1 = net::listen_reuseport("127.0.0.1", port);
  net::Fd shard2 = net::listen_reuseport("127.0.0.1", port);
  EXPECT_EQ(net::local_port(shard1.get()), port);
  EXPECT_EQ(net::local_port(shard2.get()), port);

  // Every dialed connection lands on exactly one listener of the group —
  // the kernel does the accept sharding, no userspace handoff.
  std::vector<net::Fd> clients;
  for (int i = 0; i < 24; ++i)
    clients.push_back(net::connect_tcp("127.0.0.1", port));
  const int listeners[] = {shard0.get(), shard1.get(), shard2.get()};
  std::size_t accepted = 0;
  std::vector<net::Fd> server_ends;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (accepted < clients.size() &&
         std::chrono::steady_clock::now() < deadline) {
    for (const int fd : listeners) {
      for (;;) {
        net::Fd conn = net::accept_connection(fd);
        if (!conn.valid()) break;
        server_ends.push_back(std::move(conn));
        ++accepted;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accepted, clients.size());
}

TEST(Socket, NaivePortZeroReuseportClonesLandOnDifferentPorts) {
  // The trap the recipe above exists to avoid: binding each shard at port 0
  // gives every shard its *own* ephemeral port — no shared group, and
  // clients dialing shard 0's port would reach only shard 0.
  net::Fd a = net::listen_reuseport("127.0.0.1", 0);
  net::Fd b = net::listen_reuseport("127.0.0.1", 0);
  EXPECT_NE(net::local_port(a.get()), net::local_port(b.get()));
}

// -------------------------------------------------------------- loop group

TEST(LoopGroup, RunsOneWorkerPerExtraLoopAndJoinsClean) {
  net::LoopGroup group(4);
  EXPECT_EQ(group.size(), 4u);
  std::atomic<int> ran{0};
  group.start_workers([&](std::size_t index) {
    EXPECT_GE(index, 1u);  // loop 0 stays with the caller
    std::atomic<bool> woken{false};
    group.loop(index).post([&] { woken.store(true); });
    while (!woken.load()) group.loop(index).poll(-1);
    ran.fetch_add(1);
  });
  group.join_workers();
  EXPECT_EQ(ran.load(), 3);
}

TEST(LoopGroup, JoinRethrowsTheFirstWorkerFailure) {
  net::LoopGroup group(3);
  group.start_workers(
      [](std::size_t) { throw std::runtime_error("worker boom"); });
  EXPECT_THROW(group.join_workers(), std::runtime_error);
}

// Multi-producer post storm: every function posted from every thread runs
// exactly once, and watched() stays safely readable from the producers.
// (The TSAN CI job runs this to certify the cross-thread contract.)
TEST(EventLoop, PostStormFromManyThreadsDeliversEveryFunction) {
  net::EventLoop loop;
  net::TimerFd timer;
  loop.add(timer.fd(), EPOLLIN, [&](std::uint32_t) { timer.acknowledge(); });
  constexpr int kThreads = 4;
  constexpr int kPosts = 2000;
  std::atomic<int> delivered{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPosts; ++i) {
        loop.post([&] { delivered.fetch_add(1, std::memory_order_relaxed); });
        // Cross-thread introspection under fire must never race the loop.
        EXPECT_LE(loop.watched(), 1u);
      }
    });
  }
  while (delivered.load() < kThreads * kPosts) loop.poll(-1);
  for (std::thread& t : posters) t.join();
  EXPECT_EQ(delivered.load(), kThreads * kPosts);
  loop.remove(timer.fd());
  EXPECT_EQ(loop.watched(), 0u);
}

}  // namespace
