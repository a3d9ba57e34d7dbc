// client_journeys.hpp — the client half of the per-request contract: a
// page asked for at t0 must arrive by t0 + t_p * slot_us, where the
// server's kReqAck grants the promised wait t_p.
//
// One book per client session holds the open traced requests and the
// impatient wants, and emits every client.req.* journey event. A want
// watches the broadcast for a page; if the page does not air within its
// patience, expire() turns it into a request (the hybrid pull fallback).
// Callers run expire() before serve_wants() for a slot, so the
// broadcast/pull decision is made at deadline time, like sim/hybrid's
// impatient clients. A request completes on the first arrival of its page
// after its ack, by broadcast or kPull: on an in-order stream the ack
// precedes the next airing, so a copy already in flight does not count.
// Callers send the frames the book appends and keep their own sinks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "net/framing.hpp"
#include "obs/trace.hpp"

namespace tcsa {

/// A served request, as reported to complete()'s callback.
struct JourneyCompletion {
  std::uint64_t slot = 0;             ///< slot of the frame that carried it
  bool via_pull = false;              ///< a kPull frame, not the broadcast
  std::int64_t want_issue_slot = -1;  ///< >= 0: a timed-out want's request
  std::uint64_t delay_us = 0;         ///< request sent -> page decoded
  std::int64_t slack_us = 0;  ///< deadline - decoded (negative = missed)
};

class ClientJourneys {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// `bound` caps both the open requests (the oldest is dropped to make
  /// room) and the open wants (new ones are refused).
  explicit ClientJourneys(std::size_t bound = kUnbounded) : bound_(bound) {}

  /// Mints a trace id, appends the kReq frame to `out` and opens the
  /// request. `want_issue_slot` >= 0 marks a want's pull fallback.
  std::uint64_t request(std::string& out, PageId page,
                        std::int64_t want_issue_slot = -1);

  /// Grants the acked request its deadline t0 + expected_slots * slot_us.
  /// Returns the request's send time t0, or nullopt for an ack of no open
  /// request (already dropped).
  std::optional<std::uint64_t> ack(const net::ReqAckMsg& ack,
                                   std::uint32_t slot_us,
                                   std::uint64_t now_us);

  /// True while `trace_id` is open and not yet acked.
  bool awaiting_ack(std::uint64_t trace_id) const;

  /// Opens a want for `page` issued at `issue_slot` that waits `patience`
  /// slots before pulling. False when the bound refuses it.
  bool want(PageId page, std::int64_t issue_slot, std::int64_t patience);

  /// Turns every want whose patience ran out by `slot` into a request,
  /// appending its kReq to `out`. Returns how many converted.
  std::size_t expire(std::int64_t slot, std::string& out);

  /// The broadcast aired `page` at `slot`: closes its wants, calling
  /// `on_served(wait_slots)` for each.
  template <class OnServed>
  void serve_wants(PageId page, std::int64_t slot, OnServed&& on_served) {
    std::erase_if(wants_, [&](const Want& want) {
      if (want.page != page) return false;
      on_served(slot - want.issue_slot);
      return true;
    });
  }

  /// `page` arrived at `slot`: completes every acked request for it,
  /// calling `on_done(const JourneyCompletion&)` for each.
  template <class OnDone>
  void complete(PageId page, std::uint64_t slot, bool via_pull,
                OnDone&& on_done) {
    if (reqs_.empty()) return;
    const std::uint64_t first_byte_us = obs::trace_now_us();
    std::erase_if(reqs_, [&](const OpenRequest& req) {
      if (req.page != page || !req.acked) return false;
      on_done(finish(req, slot, via_pull, first_byte_us));
      return true;
    });
  }

  std::size_t open_requests() const noexcept { return reqs_.size(); }
  std::size_t open_wants() const noexcept { return wants_.size(); }

 private:
  struct OpenRequest {
    std::uint64_t trace_id = 0;
    PageId page = 0;
    std::uint64_t t0_us = 0;        ///< client trace clock at send
    std::uint64_t deadline_us = 0;  ///< set by the ack
    bool acked = false;
    std::int64_t want_issue_slot = -1;
  };
  struct Want {
    PageId page = 0;
    std::int64_t issue_slot = 0;
    std::int64_t patience = 0;
  };

  /// Emits the completion events and measures the request.
  static JourneyCompletion finish(const OpenRequest& req, std::uint64_t slot,
                                  bool via_pull, std::uint64_t first_byte_us);

  std::size_t bound_;
  std::vector<OpenRequest> reqs_;
  std::vector<Want> wants_;
};

}  // namespace tcsa
