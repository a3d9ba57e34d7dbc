// journeys_test.cpp — ClientJourneys, the request/want state machine both
// tcsactl tune and loadgen drive. No sockets, no sleeps: frames go to a
// string and acks are built by hand.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/framing.hpp"
#include "server/client_journeys.hpp"

using namespace tcsa;

namespace {

/// The pages of the kReq frames in `bytes`, in order.
std::vector<PageId> requested_pages(const std::string& bytes) {
  net::FrameDecoder decoder;
  decoder.feed(bytes);
  std::vector<PageId> pages;
  net::Frame frame;
  while (decoder.next(frame)) {
    EXPECT_EQ(frame.type, net::FrameType::kReq);
    pages.push_back(net::decode<net::ReqMsg>(frame.payload).page);
  }
  return pages;
}

net::ReqAckMsg ack_for(std::uint64_t trace_id, std::uint32_t expected_slots) {
  net::ReqAckMsg ack;
  ack.trace_id = trace_id;
  ack.expected_slots = expected_slots;
  return ack;
}

TEST(ClientJourneys, ExpiryRunsBeforePageMatchingOnTheSameSlot) {
  ClientJourneys book;
  ASSERT_TRUE(book.want(3, /*issue_slot=*/10, /*patience=*/2));
  ASSERT_TRUE(book.want(4, 10, 2));
  std::string out;
  EXPECT_EQ(book.expire(12, out), 0u) << "slot 12 is still within patience";
  EXPECT_TRUE(out.empty());

  std::vector<std::int64_t> waits;
  const auto served = [&](std::int64_t waited) { waits.push_back(waited); };
  book.serve_wants(4, 12, served);
  EXPECT_EQ(waits, std::vector<std::int64_t>{2});

  // Page 3 airs at slot 13, one past its patience: the caller's expire()
  // runs first and turns the want into a pull request, so the airing
  // serves nothing.
  EXPECT_EQ(book.expire(13, out), 1u);
  book.serve_wants(3, 13, served);
  EXPECT_EQ(waits.size(), 1u);
  EXPECT_EQ(requested_pages(out), std::vector<PageId>{3});
  EXPECT_EQ(book.open_wants(), 0u);
  EXPECT_EQ(book.open_requests(), 1u);
}

TEST(ClientJourneys, APageBeforeTheAckDoesNotCompleteARequest) {
  ClientJourneys book;
  std::string out;
  const std::uint64_t id = book.request(out, 5);
  EXPECT_EQ(requested_pages(out), std::vector<PageId>{5});
  std::vector<JourneyCompletion> done;
  const auto sink = [&](const JourneyCompletion& c) { done.push_back(c); };

  book.complete(5, 100, /*via_pull=*/false, sink);
  EXPECT_TRUE(done.empty()) << "a copy in flight before the ack counted";
  EXPECT_TRUE(book.awaiting_ack(id));

  ASSERT_TRUE(book.ack(ack_for(id, 4), /*slot_us=*/1000, /*now_us=*/0));
  EXPECT_FALSE(book.awaiting_ack(id));
  book.complete(6, 101, false, sink);
  EXPECT_TRUE(done.empty()) << "another page completed the request";

  book.complete(5, 102, false, sink);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].slot, 102u);
  EXPECT_FALSE(done[0].via_pull);
  EXPECT_EQ(done[0].want_issue_slot, -1);
  // deadline = t0 + 4 slots: delay and slack split exactly that budget.
  EXPECT_EQ(static_cast<std::int64_t>(done[0].delay_us) + done[0].slack_us,
            4000);
  EXPECT_EQ(book.open_requests(), 0u);
}

TEST(ClientJourneys, PullAiringCompletesRequestsButServesNoWant) {
  ClientJourneys book;
  std::string out;
  ASSERT_TRUE(book.want(7, /*issue_slot=*/20, /*patience=*/1));
  ASSERT_EQ(book.expire(22, out), 1u);  // the want's pull fallback
  ASSERT_TRUE(book.want(7, 22, 50));    // a second, still patient want
  book.request(out, 7);

  // Ack both requests (the want's fallback was minted first).
  net::FrameDecoder decoder;
  decoder.feed(out);
  net::Frame frame;
  while (decoder.next(frame))
    ASSERT_TRUE(book.ack(
        ack_for(net::decode<net::ReqMsg>(frame.payload).trace_id, 2), 1000,
        0));

  std::vector<JourneyCompletion> done;
  book.complete(7, 24, /*via_pull=*/true,
                [&](const JourneyCompletion& c) { done.push_back(c); });
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].via_pull);
  EXPECT_EQ(done[0].want_issue_slot, 20) << "fallback keeps its want's slot";
  EXPECT_EQ(done[1].want_issue_slot, -1);
  EXPECT_EQ(book.open_requests(), 0u);
  EXPECT_EQ(book.open_wants(), 1u) << "a pull airing served a want";
}

TEST(ClientJourneys, TheBoundDropsTheOldestRequestAndRefusesANinthWant) {
  ClientJourneys book(8);
  std::string out;
  std::vector<std::uint64_t> ids;
  for (PageId page = 0; page < 9; ++page)
    ids.push_back(book.request(out, page));
  EXPECT_EQ(book.open_requests(), 8u);
  EXPECT_EQ(requested_pages(out).size(), 9u) << "every request still sent";
  EXPECT_FALSE(book.ack(ack_for(ids[0], 1), 1000, 0)) << "oldest not dropped";
  EXPECT_TRUE(book.ack(ack_for(ids[1], 1), 1000, 0));
  EXPECT_TRUE(book.ack(ack_for(ids[8], 1), 1000, 0));

  for (PageId page = 0; page < 8; ++page)
    EXPECT_TRUE(book.want(page, 0, 5));
  EXPECT_FALSE(book.want(8, 0, 5));
  EXPECT_EQ(book.open_wants(), 8u);

  ClientJourneys unbounded;
  for (PageId page = 0; page < 9; ++page) {
    unbounded.request(out, page);
    EXPECT_TRUE(unbounded.want(page, 0, 5));
  }
  EXPECT_EQ(unbounded.open_requests(), 9u);
  EXPECT_EQ(unbounded.open_wants(), 9u);
}

}  // namespace
