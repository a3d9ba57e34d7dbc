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
#include "obs/reqtrace.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"

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
  send_tune(options.channel_mask);
}

void TuneClient::send_tune(std::uint64_t mask) {
  std::string payload;
  wire_put_u64(payload, mask);
  std::string bytes;
  net::append_frame(bytes, net::FrameType::kTune, payload);
  send_all(bytes);
}

void TuneClient::retune(std::uint64_t mask) {
  send_tune(mask);
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
      on_page(frame);
      return;
    case net::FrameType::kAnnounce:
      apply_announcement(frame.payload, /*initial=*/false);
      return;
    case net::FrameType::kReqAck:
      on_req_ack(frame);
      return;
    case net::FrameType::kPull:
      on_pull(frame);
      return;
    case net::FrameType::kSwapReply: {
      WireReader reader(frame.payload);
      SwapReply reply;
      reply.accepted = reader.read_u8() != 0;
      reply.generation = reader.read_u32();
      reply.activation_slot = reader.read_u64();
      reply.seam_lateness = reader.read_i64();
      reply.error = std::string(reader.read_rest());
      last_swap_reply_ = std::move(reply);
      return;
    }
    default:
      throw std::invalid_argument("tune: unexpected frame type from server");
  }
}

void TuneClient::apply_announcement(std::string_view payload, bool initial) {
  WireReader reader(payload);
  generation_ = reader.read_u32();
  slot_us_ = reader.read_u32();
  channels_ = static_cast<SlotCount>(reader.read_u32());
  cycle_length_ = static_cast<SlotCount>(reader.read_u32());
  const std::uint64_t next_slot = reader.read_u64();
  Workload next = workload_from_binary(reader.read_rest());
  if (initial) {
    tune_in_slot_ = next_slot;
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
  if (open_wants_.empty()) return;
  // Patience expiry runs before page matching: a want whose deadline passed
  // converts to a pull request even if its page happens to air this very
  // slot — the broadcast/pull decision is made at deadline time, exactly
  // like sim/hybrid's impatient clients (decision-time accounting).
  const auto now = static_cast<std::int64_t>(slot);
  for (auto it = open_wants_.begin(); it != open_wants_.end();) {
    if (now <= it->issue_slot + it->patience) {
      ++it;
      continue;
    }
    ++wants_pulled_;
    send_request(it->page, it->issue_slot);
    it = open_wants_.erase(it);
  }
}

void TuneClient::on_page(const net::Frame& frame) {
  WireReader reader(frame.payload);
  const std::uint64_t slot = reader.read_u64();
  const std::uint32_t generation = reader.read_u32();
  const std::uint32_t channel = reader.read_u32();
  const PageId page = reader.read_u32();
  reader.expect_done();

  ++frames_;
  note_slot(slot);
  if (options_.record_pages)
    pages_.push_back(ReceivedPage{slot, generation, channel, page});

  // Wants watching for this page are broadcast-served: it aired within
  // patience (anything expired strictly before this slot already converted
  // in note_slot above).
  for (auto it = open_wants_.begin(); it != open_wants_.end();) {
    if (it->page != page) {
      ++it;
      continue;
    }
    ++wants_broadcast_;
    want_broadcast_wait_slots_ +=
        static_cast<double>(static_cast<std::int64_t>(slot) - it->issue_slot);
    it = open_wants_.erase(it);
  }

  if (static_cast<std::size_t>(page) >= chains_.size()) return;
  Chain& chain = chains_[page];
  PageStats& stats = stats_[page];
  ++stats.receptions;
  if (chain.last_slot >= 0) {
    const auto gap = static_cast<SlotCount>(
        static_cast<std::int64_t>(slot) - chain.last_slot);
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
  chain.last_slot = static_cast<std::int64_t>(slot);
  chain.promise = workload_->expected_time_of(page);

  complete_open_reqs(page, slot, /*via_pull=*/false);
}

void TuneClient::on_pull(const net::Frame& frame) {
  WireReader reader(frame.payload);
  const std::uint64_t slot = reader.read_u64();
  reader.read_u32();  // generation, informational
  const PageId page = reader.read_u32();
  const std::uint32_t waiters = reader.read_u32();
  reader.expect_done();

  ++frames_;
  note_slot(slot);
  ++pull_frames_;
  pull_waiters_sum_ += waiters;
  // A pull airing is an on-demand, out-of-band delivery: it completes the
  // requests that asked for the page but does not extend the page's
  // broadcast reception chain — validity condition (2) is a property of
  // the periodic schedule, not of the pull channel.
  complete_open_reqs(page, slot, /*via_pull=*/true);
}

// Traced request completion: the first arrival of the requested page after
// its ack closes the journey — whether it rode the broadcast schedule or a
// pull airing. A copy already in flight when the request went out does not
// count — service is measured from the request, and the ack always precedes
// the next airing on this in-order stream.
void TuneClient::complete_open_reqs(PageId page, std::uint64_t slot,
                                    bool via_pull) {
  if (open_reqs_.empty()) return;
  const std::uint64_t first_byte_us = obs::trace_now_us();
  for (auto it = open_reqs_.begin(); it != open_reqs_.end();) {
    if (it->page != page || !it->acked) {
      ++it;
      continue;
    }
    TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientFirstByte,
                   first_byte_us, slot);
    const std::uint64_t decoded_us = obs::trace_now_us();
    TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientDecoded, decoded_us,
                   page);
    const std::int64_t slack = static_cast<std::int64_t>(it->deadline_us) -
                               static_cast<std::int64_t>(decoded_us);
    req_delay_us_.push_back(static_cast<double>(decoded_us - it->t0_us));
    req_slack_us_.push_back(static_cast<double>(slack));
    if (slack < 0) ++req_misses_;
    TCSA_REQ_EVENT(it->trace_id, obs::ReqStage::kClientDone, decoded_us,
                   static_cast<std::uint64_t>(slack));
    ++reqs_completed_;
    if (via_pull && it->want_issue_slot >= 0) {
      ++pulls_completed_;
      want_pull_wait_slots_ += static_cast<double>(
          static_cast<std::int64_t>(slot) - it->want_issue_slot);
    }
    it = open_reqs_.erase(it);
  }
}

void TuneClient::on_req_ack(const net::Frame& frame) {
  WireReader reader(frame.payload);
  const std::uint64_t trace_id = reader.read_u64();
  const std::uint64_t t1 = reader.read_u64();
  const std::uint64_t t2 = reader.read_u64();
  const std::uint64_t next_slot = reader.read_u64();
  reader.read_u32();  // page (redundant with the open entry)
  const std::uint32_t expected_slots = reader.read_u32();
  reader.read_u32();  // generation, informational
  reader.expect_done();
  const std::uint64_t t3 = obs::trace_now_us();
  for (OpenReq& req : open_reqs_) {
    if (req.trace_id != trace_id) continue;
    req.acked = true;
    // The exchange's four stamps give one NTP sample; the promise granted
    // at request time becomes a concrete wall deadline on our clock.
    offset_.add_sample(req.t0_us, t1, t2, t3);
    req.deadline_us =
        req.t0_us + std::uint64_t{expected_slots} * slot_us_;
    ++reqs_acked_;
    TCSA_REQ_EVENT(trace_id, obs::ReqStage::kClientAcked, t3, next_slot);
    return;
  }
  // Ack for a journey we no longer track (client restarted accounting) —
  // harmless, drop it.
}

std::uint64_t TuneClient::send_request(PageId page,
                                       std::int64_t want_issue_slot) {
  const std::uint64_t trace_id = obs::mint_trace_id();
  std::string payload;
  wire_put_u64(payload, trace_id);
  wire_put_u32(payload, page);
  std::string bytes;
  net::append_frame(bytes, net::FrameType::kReq, payload);
  const std::uint64_t t0 = obs::trace_now_us();
  open_reqs_.push_back(
      OpenReq{trace_id, page, t0, 0, false, want_issue_slot});
  ++reqs_sent_;
  send_all(bytes);
  TCSA_REQ_EVENT(trace_id, obs::ReqStage::kClientSent, t0, page);
  return trace_id;
}

std::uint64_t TuneClient::request_page(PageId page) {
  const std::uint64_t trace_id = send_request(page, /*want_issue_slot=*/-1);
  // Pump until the ack lands (request_swap's pattern); pages and announces
  // received meanwhile are processed normally.
  net::Frame frame;
  while (true) {
    bool acked = false;
    for (const OpenReq& req : open_reqs_) {
      if (req.trace_id == trace_id) {
        acked = req.acked;
        break;
      }
    }
    if (acked) break;
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
  open_wants_.push_back(
      Want{page, issue, std::max<std::int64_t>(1, patience)});
  ++wants_issued_;
}

bool TuneClient::run_with_wants(std::uint64_t slots, std::uint64_t count,
                                std::int64_t patience_slots) {
  if (count == 0 || slots == 0) return run(slots);
  const std::uint64_t target = slots_seen_ + slots;
  const std::uint64_t stride = std::max<std::uint64_t>(1, slots / count);
  std::uint64_t next_want_at = slots_seen_;
  std::uint64_t issued = 0;
  PageId next_page = 0;
  net::Frame frame;
  while (slots_seen_ < target) {
    if (issued < count && slots_seen_ >= next_want_at) {
      const auto total = static_cast<PageId>(workload_->total_pages());
      want_page(next_page, patience_slots);
      next_page = static_cast<PageId>((next_page + 1) % total);
      ++issued;
      next_want_at += stride;
    }
    if (!read_frame(frame)) return true;
    handle_frame(frame);
  }
  return false;
}

bool TuneClient::run_with_requests(std::uint64_t slots, std::uint64_t count) {
  if (count == 0 || slots == 0) return run(slots);
  const std::uint64_t target = slots_seen_ + slots;
  const std::uint64_t stride = std::max<std::uint64_t>(1, slots / count);
  std::uint64_t next_request_at = slots_seen_;
  std::uint64_t issued = 0;
  PageId next_page = 0;
  net::Frame frame;
  while (slots_seen_ < target) {
    if (issued < count && slots_seen_ >= next_request_at) {
      const auto total = static_cast<PageId>(workload_->total_pages());
      request_page(next_page);
      next_page = static_cast<PageId>((next_page + 1) % total);
      ++issued;
      next_request_at += stride;
    }
    if (!read_frame(frame)) return true;
    handle_frame(frame);
  }
  return false;
}

bool TuneClient::run(std::uint64_t slots) {
  const std::uint64_t target = slots == 0 ? 0 : slots_seen_ + slots;
  net::Frame frame;
  while (target == 0 || slots_seen_ < target) {
    if (!read_frame(frame)) return true;
    handle_frame(frame);
  }
  return false;
}

SwapReply TuneClient::request_swap(const Workload& next, SlotCount channels,
                                   int method) {
  std::string payload;
  wire_put_u32(payload, static_cast<std::uint32_t>(channels));
  wire_put_u8(payload, method < 0 ? net::kSwapMethodAuto
                                  : static_cast<std::uint8_t>(method));
  append_workload_binary(payload, next);
  std::string bytes;
  net::append_frame(bytes, net::FrameType::kSwap, payload);
  send_all(bytes);

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
  out.wants.undecided = open_wants_.size();
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
