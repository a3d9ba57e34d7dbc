#include "server/tune_client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "model/serialize.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace tcsa {
namespace {

[[noreturn]] void io_fail(const std::string& what) {
  throw std::runtime_error("tune: " + what + ": " + std::strerror(errno));
}

}  // namespace

std::string TuneSummary::to_json() const {
  std::string out = "{";
  out += "\"slots\": " + std::to_string(slots_seen);
  out += ", \"frames\": " + std::to_string(frames);
  out += ", \"bytes\": " + std::to_string(bytes);
  out += ", \"generation\": " + std::to_string(generation);
  out += ", \"swaps_observed\": " + std::to_string(swaps_observed);
  out += ", \"retunes\": " + std::to_string(retunes);
  out += ", \"deadline_misses\": " + std::to_string(deadline_misses);
  out += ", \"mean_access_time\": " + obs::json_number(mean_access_time);
  out += ", \"requests\": {";
  out += "\"sent\": " + std::to_string(requests.sent);
  out += ", \"acked\": " + std::to_string(requests.acked);
  out += ", \"completed\": " + std::to_string(requests.completed);
  out += ", \"misses\": " + std::to_string(requests.misses);
  out += ", \"delay_p50_us\": " + obs::json_number(requests.delay_p50_us);
  out += ", \"delay_p99_us\": " + obs::json_number(requests.delay_p99_us);
  out += ", \"delay_max_us\": " + obs::json_number(requests.delay_max_us);
  out += ", \"slack_p50_us\": " + obs::json_number(requests.slack_p50_us);
  out += ", \"slack_min_us\": " + obs::json_number(requests.slack_min_us);
  out += ", \"clock_offset_us\": " + std::to_string(requests.clock_offset_us);
  out += ", \"clock_rtt_us\": " + std::to_string(requests.clock_rtt_us);
  out += ", \"clock_samples\": " + std::to_string(requests.clock_samples);
  out += "}";
  out += ", \"wants\": {";
  out += "\"issued\": " + std::to_string(wants.issued);
  out += ", \"broadcast_served\": " + std::to_string(wants.broadcast_served);
  out += ", \"pulled\": " + std::to_string(wants.pulled);
  out += ", \"pull_completed\": " + std::to_string(wants.pull_completed);
  out += ", \"undecided\": " + std::to_string(wants.undecided);
  out += ", \"pull_fraction\": " + obs::json_number(wants.pull_fraction);
  out += ", \"mean_broadcast_wait_slots\": " +
         obs::json_number(wants.mean_broadcast_wait_slots);
  out += ", \"mean_pull_wait_slots\": " +
         obs::json_number(wants.mean_pull_wait_slots);
  out += ", \"pull_frames\": " + std::to_string(wants.pull_frames);
  out += ", \"mean_coalesced_waiters\": " +
         obs::json_number(wants.mean_coalesced_waiters);
  out += "}";
  out += ", \"groups\": [";
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const TuneGroupStats& s = groups[g];
    if (g) out += ", ";
    out += "{\"expected_time\": " + std::to_string(s.expected_time);
    out += ", \"receptions\": " + std::to_string(s.receptions);
    out += ", \"chains\": " + std::to_string(s.chains);
    out += ", \"gaps\": " + std::to_string(s.gaps);
    out += ", \"max_gap\": " + std::to_string(s.max_gap);
    out += ", \"mean_gap\": " + obs::json_number(s.mean_gap);
    out += ", \"access_time\": " + obs::json_number(s.access_time);
    out += ", \"misses\": " + std::to_string(s.misses);
    out += "}";
  }
  out += "]}";
  return out;
}

TuneClient::TuneClient(const Options& options) : options_(options) {
  fd_ = net::connect_tcp(options.host, options.port);
  net::set_tcp_nodelay(fd_.get());
  net::Frame frame;
  if (!read_frame(frame))
    throw std::runtime_error("tune: server closed before HELLO");
  if (frame.type != net::FrameType::kHello)
    throw std::invalid_argument("tune: expected a HELLO frame first");
  apply_announcement(frame.payload, /*initial=*/true);
  send_all(net::encode(net::TuneMsg{options.channel_mask}));
}

void TuneClient::retune(std::uint64_t mask) {
  send_all(net::encode(net::TuneMsg{mask}));
  ++retunes_;
  // Switching stations forfeits in-flight promises: a gap spanning the
  // retune says nothing about the program's validity.
  for (Chain& chain : chains_) chain = Chain{};
}

void TuneClient::send_all(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool TuneClient::read_frame(net::Frame& frame) {
  while (!decoder_.next(frame)) {
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, options_.io_timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      io_fail("poll");
    }
    if (ready == 0)
      throw std::runtime_error("tune: timed out waiting for the server");
    char buffer[16384];
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("recv");
    }
    if (n == 0) return false;  // orderly server shutdown
    decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    bytes_ += static_cast<std::uint64_t>(n);
  }
  return true;
}

void TuneClient::handle_frame(const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kPage:
      on_page(net::decode<net::PageMsg>(frame.payload));
      return;
    case net::FrameType::kAnnounce:
      apply_announcement(frame.payload, /*initial=*/false);
      return;
    case net::FrameType::kReqAck:
      on_req_ack(net::decode<net::ReqAckMsg>(frame.payload));
      return;
    case net::FrameType::kPull:
      on_pull(net::decode<net::PullMsg>(frame.payload));
      return;
    case net::FrameType::kSwapReply: {
      const auto reply = net::decode<net::SwapReplyMsg>(frame.payload);
      last_swap_reply_ =
          SwapReply{reply.accepted, reply.generation, reply.activation_slot,
                    reply.seam_lateness, std::string(reply.error)};
      return;
    }
    default:
      throw std::invalid_argument("tune: unexpected frame type from server");
  }
}

void TuneClient::apply_announcement(std::string_view payload, bool initial) {
  const auto hello = net::decode<net::HelloMsg>(payload);
  Workload next = workload_from_binary(hello.workload);
  generation_ = hello.generation;
  slot_us_ = hello.slot_us;
  channels_ = static_cast<SlotCount>(hello.channels);
  cycle_length_ = static_cast<SlotCount>(hello.cycle_length);
  if (initial) {
    tune_in_slot_ = hello.next_slot;
  } else {
    ++swaps_observed_;
  }
  workload_ = std::move(next);
  // Chains of pages common to both workloads carry over — their promises
  // were made under the old generation and the seam plan keeps them.
  // Pages beyond the new n (workload shrank) drop out, stats and all.
  const auto n = static_cast<std::size_t>(workload_->total_pages());
  chains_.resize(n);
  stats_.resize(n);
}

void TuneClient::note_slot(std::uint64_t slot) {
  if (static_cast<std::int64_t>(slot) != last_slot_seen_) {
    ++slots_seen_;
    last_slot_seen_ = static_cast<std::int64_t>(slot);
  }
  // Patience expiry runs before page matching: a want whose deadline passed
  // converts to a pull request even if its page happens to air this very
  // slot (decision-time accounting, see ClientJourneys).
  std::string bytes;
  const std::size_t pulled =
      journeys_.expire(static_cast<std::int64_t>(slot), bytes);
  if (pulled == 0) return;
  wants_pulled_ += pulled;
  reqs_sent_ += pulled;
  send_all(bytes);
}

void TuneClient::on_page(const net::PageMsg& msg) {
  ++frames_;
  note_slot(msg.slot);
  if (options_.record_pages) pages_.push_back(msg);

  // Wants watching for this page are broadcast-served: it aired within
  // patience (anything expired strictly before this slot already converted
  // in note_slot above).
  journeys_.serve_wants(msg.page, static_cast<std::int64_t>(msg.slot),
                        [&](std::int64_t waited) {
                          ++wants_broadcast_;
                          want_broadcast_wait_slots_ +=
                              static_cast<double>(waited);
                        });

  if (static_cast<std::size_t>(msg.page) >= chains_.size()) return;
  Chain& chain = chains_[msg.page];
  PageStats& stats = stats_[msg.page];
  ++stats.receptions;
  if (chain.last_slot >= 0) {
    const auto gap = static_cast<SlotCount>(
        static_cast<std::int64_t>(msg.slot) - chain.last_slot);
    ++stats.gaps;
    stats.gap_sum += static_cast<double>(gap);
    stats.gap_sq_sum += static_cast<double>(gap) * static_cast<double>(gap);
    stats.max_gap = std::max(stats.max_gap, gap);
    if (gap > chain.promise) {
      ++stats.misses;
      ++misses_;
    }
  } else {
    ++stats.chains;
  }
  chain.last_slot = static_cast<std::int64_t>(msg.slot);
  chain.promise = workload_->expected_time_of(msg.page);

  complete(msg.page, msg.slot, /*via_pull=*/false);
}

void TuneClient::on_pull(const net::PullMsg& msg) {
  ++frames_;
  note_slot(msg.slot);
  ++pull_frames_;
  pull_waiters_sum_ += msg.waiters;
  // A pull airing is an on-demand, out-of-band delivery: it completes the
  // requests that asked for the page but does not extend the page's
  // broadcast reception chain — validity condition (2) is a property of
  // the periodic schedule, not of the pull channel.
  complete(msg.page, msg.slot, /*via_pull=*/true);
}

void TuneClient::complete(PageId page, std::uint64_t slot, bool via_pull) {
  journeys_.complete(page, slot, via_pull, [&](const JourneyCompletion& c) {
    req_delay_us_.push_back(static_cast<double>(c.delay_us));
    req_slack_us_.push_back(static_cast<double>(c.slack_us));
    if (c.slack_us < 0) ++req_misses_;
    ++reqs_completed_;
    if (c.via_pull && c.want_issue_slot >= 0) {
      ++pulls_completed_;
      want_pull_wait_slots_ += static_cast<double>(
          static_cast<std::int64_t>(c.slot) - c.want_issue_slot);
    }
  });
}

void TuneClient::on_req_ack(const net::ReqAckMsg& msg) {
  // The exchange's four stamps give one NTP sample. An ack for a journey
  // no longer tracked is harmless: drop it.
  const std::uint64_t t3 = obs::trace_now_us();
  if (const auto t0 = journeys_.ack(msg, slot_us_, t3)) {
    offset_.add_sample(*t0, msg.recv_us, msg.send_us, t3);
    ++reqs_acked_;
  }
}

std::uint64_t TuneClient::request_page(PageId page) {
  std::string bytes;
  const std::uint64_t trace_id = journeys_.request(bytes, page);
  ++reqs_sent_;
  send_all(bytes);
  // Pump until the ack lands (request_swap's pattern); pages and announces
  // received meanwhile are processed normally.
  net::Frame frame;
  while (journeys_.awaiting_ack(trace_id)) {
    if (!read_frame(frame))
      throw std::runtime_error("tune: server closed before the request ack");
    handle_frame(frame);
  }
  return trace_id;
}

void TuneClient::want_page(PageId page, std::int64_t patience_slots) {
  std::int64_t patience = patience_slots;
  if (patience <= 0 &&
      static_cast<std::size_t>(page) < static_cast<std::size_t>(
                                           workload_->total_pages()))
    patience = static_cast<std::int64_t>(workload_->expected_time_of(page));
  // Issue time is the latest slot this client has observed — wants are
  // decided against the broadcast clock as seen from the receiver.
  const std::int64_t issue =
      last_slot_seen_ >= 0 ? last_slot_seen_
                           : static_cast<std::int64_t>(tune_in_slot_);
  journeys_.want(page, issue, std::max<std::int64_t>(1, patience));
  ++wants_issued_;
}

bool TuneClient::run(std::uint64_t slots, std::uint64_t requests,
                     std::int64_t patience_slots) {
  const std::uint64_t target = slots == 0 ? 0 : slots_seen_ + slots;
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, slots / std::max<std::uint64_t>(1, requests));
  std::uint64_t next_at = slots_seen_;
  std::uint64_t issued = 0;
  PageId next_page = 0;
  net::Frame frame;
  while (target == 0 || slots_seen_ < target) {
    if (target != 0 && issued < requests && slots_seen_ >= next_at) {
      const auto total = static_cast<PageId>(workload_->total_pages());
      if (patience_slots >= 0)
        want_page(next_page, patience_slots);
      else
        request_page(next_page);
      next_page = static_cast<PageId>((next_page + 1) % total);
      ++issued;
      next_at += stride;
    }
    if (!read_frame(frame)) return true;
    handle_frame(frame);
  }
  return false;
}

SwapReply TuneClient::request_swap(const Workload& next, SlotCount channels,
                                   int method) {
  const std::string workload = workload_to_binary(next);
  const std::uint8_t method_byte =
      method < 0 ? net::kSwapMethodAuto : static_cast<std::uint8_t>(method);
  send_all(net::encode(net::SwapMsg{static_cast<std::uint32_t>(channels),
                                    method_byte, workload}));

  last_swap_reply_.reset();
  net::Frame frame;
  while (!last_swap_reply_) {
    if (!read_frame(frame))
      throw std::runtime_error("tune: server closed before the swap reply");
    handle_frame(frame);
  }
  return *last_swap_reply_;
}

TuneSummary TuneClient::summary() const {
  TuneSummary out;
  out.frames = frames_;
  out.bytes = bytes_;
  out.slots_seen = slots_seen_;
  out.generation = generation_;
  out.swaps_observed = swaps_observed_;
  out.retunes = retunes_;
  out.deadline_misses = misses_;

  const Workload& w = *workload_;
  out.groups.resize(static_cast<std::size_t>(w.group_count()));
  for (GroupId g = 0; g < w.group_count(); ++g)
    out.groups[static_cast<std::size_t>(g)].expected_time = w.expected_time(g);

  // Per-page E[wait] for a uniform-random tune-in over the observed span:
  // sum(gap^2) / (2 * sum(gap)) — the length-biased mean residual of the
  // observed gap sequence (matches the analytic S_i/2-style prediction).
  double access_sum = 0.0;
  std::uint64_t access_pages = 0;
  std::vector<double> group_access(out.groups.size(), 0.0);
  std::vector<std::uint64_t> group_access_pages(out.groups.size(), 0);
  for (std::size_t p = 0; p < stats_.size(); ++p) {
    const PageStats& stats = stats_[p];
    const auto g =
        static_cast<std::size_t>(w.group_of(static_cast<PageId>(p)));
    TuneGroupStats& group = out.groups[g];
    group.receptions += stats.receptions;
    group.chains += stats.chains;
    group.gaps += stats.gaps;
    group.max_gap = std::max(group.max_gap, stats.max_gap);
    group.mean_gap += stats.gap_sum;  // finalized to a mean below
    group.misses += stats.misses;
    if (stats.gap_sum > 0.0) {
      const double access = stats.gap_sq_sum / (2.0 * stats.gap_sum);
      group_access[g] += access;
      ++group_access_pages[g];
      access_sum += access;
      ++access_pages;
    }
  }
  for (std::size_t g = 0; g < out.groups.size(); ++g) {
    TuneGroupStats& group = out.groups[g];
    group.mean_gap =
        group.gaps ? group.mean_gap / static_cast<double>(group.gaps) : 0.0;
    group.access_time = group_access_pages[g]
                            ? group_access[g] /
                                  static_cast<double>(group_access_pages[g])
                            : 0.0;
  }
  out.mean_access_time =
      access_pages ? access_sum / static_cast<double>(access_pages) : 0.0;

  out.requests.sent = reqs_sent_;
  out.requests.acked = reqs_acked_;
  out.requests.completed = reqs_completed_;
  out.requests.misses = req_misses_;
  if (!req_delay_us_.empty()) {
    // Request counts are small: rank over copies, keeping the members.
    std::vector<double> delays(req_delay_us_);
    out.requests.delay_p50_us = nearest_rank(delays, 0.50);
    out.requests.delay_p99_us = nearest_rank(delays, 0.99);
    out.requests.delay_max_us = nearest_rank(delays, 1.0);
    std::vector<double> slacks(req_slack_us_);
    out.requests.slack_p50_us = nearest_rank(slacks, 0.50);
    out.requests.slack_min_us = nearest_rank(slacks, 0.0);
  }
  if (offset_.has_estimate()) {
    out.requests.clock_offset_us = offset_.offset_us();
    out.requests.clock_rtt_us = offset_.rtt_us();
    out.requests.clock_samples = offset_.samples();
  }

  out.wants.issued = wants_issued_;
  out.wants.broadcast_served = wants_broadcast_;
  out.wants.pulled = wants_pulled_;
  out.wants.pull_completed = pulls_completed_;
  out.wants.undecided = journeys_.open_wants();
  const std::uint64_t decided = wants_broadcast_ + wants_pulled_;
  out.wants.pull_fraction =
      decided ? static_cast<double>(wants_pulled_) /
                    static_cast<double>(decided)
              : 0.0;
  out.wants.mean_broadcast_wait_slots =
      wants_broadcast_
          ? want_broadcast_wait_slots_ / static_cast<double>(wants_broadcast_)
          : 0.0;
  out.wants.mean_pull_wait_slots =
      pulls_completed_
          ? want_pull_wait_slots_ / static_cast<double>(pulls_completed_)
          : 0.0;
  out.wants.pull_frames = pull_frames_;
  out.wants.mean_coalesced_waiters =
      pull_frames_ ? static_cast<double>(pull_waiters_sum_) /
                         static_cast<double>(pull_frames_)
                   : 0.0;
  return out;
}

}  // namespace tcsa
