#include "server/client_journeys.hpp"

#include <algorithm>

#include "obs/reqtrace.hpp"

namespace tcsa {

std::uint64_t ClientJourneys::request(std::string& out, PageId page,
                                      std::int64_t want_issue_slot) {
  const std::uint64_t trace_id = obs::mint_trace_id();
  const std::uint64_t t0 = obs::trace_now_us();
  net::append(out, net::ReqMsg{.trace_id = trace_id, .page = page});
  if (reqs_.size() >= bound_) reqs_.erase(reqs_.begin());
  reqs_.push_back(OpenRequest{trace_id, page, t0, 0, false, want_issue_slot});
  TCSA_REQ_EVENT(trace_id, obs::ReqStage::kClientSent, t0, page);
  return trace_id;
}

std::optional<std::uint64_t> ClientJourneys::ack(const net::ReqAckMsg& ack,
                                                 std::uint32_t slot_us,
                                                 std::uint64_t now_us) {
  const auto it = std::find_if(
      reqs_.begin(), reqs_.end(),
      [&](const OpenRequest& req) { return req.trace_id == ack.trace_id; });
  if (it == reqs_.end()) return std::nullopt;
  it->acked = true;
  it->deadline_us =
      it->t0_us + std::uint64_t{ack.expected_slots} * std::uint64_t{slot_us};
  TCSA_REQ_EVENT(ack.trace_id, obs::ReqStage::kClientAcked, now_us,
                 ack.next_slot);
  return it->t0_us;
}

bool ClientJourneys::awaiting_ack(std::uint64_t trace_id) const {
  return std::any_of(reqs_.begin(), reqs_.end(), [&](const OpenRequest& req) {
    return req.trace_id == trace_id && !req.acked;
  });
}

bool ClientJourneys::want(PageId page, std::int64_t issue_slot,
                          std::int64_t patience) {
  if (wants_.size() >= bound_) return false;
  wants_.push_back(Want{page, issue_slot, patience});
  return true;
}

std::size_t ClientJourneys::expire(std::int64_t slot, std::string& out) {
  std::size_t converted = 0;
  std::erase_if(wants_, [&](const Want& want) {
    if (slot <= want.issue_slot + want.patience) return false;
    request(out, want.page, want.issue_slot);
    ++converted;
    return true;
  });
  return converted;
}

JourneyCompletion ClientJourneys::finish(const OpenRequest& req,
                                         std::uint64_t slot, bool via_pull,
                                         std::uint64_t first_byte_us) {
  TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kClientFirstByte,
                 first_byte_us, slot);
  const std::uint64_t decoded_us = obs::trace_now_us();
  TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kClientDecoded, decoded_us,
                 req.page);
  const std::int64_t slack = static_cast<std::int64_t>(req.deadline_us) -
                             static_cast<std::int64_t>(decoded_us);
  TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kClientDone, decoded_us,
                 static_cast<std::uint64_t>(slack));
  return JourneyCompletion{slot, via_pull, req.want_issue_slot,
                           decoded_us - req.t0_us, slack};
}

}  // namespace tcsa
