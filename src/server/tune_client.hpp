// tune_client.hpp — the receiving side of the broadcast: tune in, listen,
// and measure what the air actually delivered.
//
// TuneClient connects to an AirServer, reads the HELLO (program generation,
// slot length, channel count, cycle length, tune-in slot, and the workload
// itself in binary form), subscribes with a channel mask, and then
// reconstructs per-page reception chains from the kPage stream. For every
// consecutive pair of receptions of the same page it records the gap and
// checks it against the deadline *promised at the previous reception* (the
// page's expected time t_i in the generation then on air) — exactly the
// client-side reading of validity condition (2). The first reception of a
// chain opens it without a gap (condition (1) is covered by the server's
// pre-air validation; a client cannot distinguish "tuned in mid-cycle" from
// "page late" without airing-start context).
//
// Chains survive hot swaps (an outstanding promise made under the old
// generation must still be kept — that is the point of the seam plan) but
// reset on retune: changing the subscription mask forfeits in-flight
// promises, like switching stations mid-song.
//
// The full deadline guarantee only holds for a full-mask subscription:
// SUSC/PAMAD may place a page's appearances on different channels, so a
// partial subscriber legitimately misses some completions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/workload.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/clock_sync.hpp"
#include "server/client_journeys.hpp"

namespace tcsa {

/// One received page frame (recorded only when Options::record_pages).
using ReceivedPage = net::PageMsg;

/// Server's answer to a hot-swap request.
struct SwapReply {
  bool accepted = false;
  std::uint32_t generation = 0;        ///< id the new program will air as
  std::uint64_t activation_slot = 0;   ///< major-cycle boundary it lands on
  std::int64_t seam_lateness = 0;      ///< <= 0: all promises preserved
  std::string error;                   ///< non-empty when rejected
};

/// Per-group reception statistics.
struct TuneGroupStats {
  SlotCount expected_time = 0;  ///< t_i of the group (current generation)
  std::uint64_t receptions = 0; ///< page frames received
  std::uint64_t chains = 0;     ///< reception chains opened
  std::uint64_t gaps = 0;       ///< consecutive-reception gaps measured
  SlotCount max_gap = 0;        ///< worst observed gap, in slots
  double mean_gap = 0.0;        ///< average observed gap
  double access_time = 0.0;     ///< E[wait] for a uniform-random tune-in
  std::uint64_t misses = 0;     ///< gaps exceeding the promised deadline
};

/// Per-request (traced kReq) accounting: the client-side read of the
/// paper's per-request promise. Delay = request sent -> page decoded;
/// slack = promised deadline minus completion (negative = missed).
struct TuneRequestStats {
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;          ///< completed after the deadline
  double delay_p50_us = 0.0;         ///< exact nearest-rank over completions
  double delay_p99_us = 0.0;
  double delay_max_us = 0.0;
  double slack_p50_us = 0.0;
  double slack_min_us = 0.0;         ///< tightest (or most blown) deadline
  std::int64_t clock_offset_us = 0;  ///< server clock - client clock
  std::uint64_t clock_rtt_us = 0;    ///< RTT of the best offset sample
  std::uint64_t clock_samples = 0;
};

/// Impatient-client ("want") accounting: each want watches the broadcast
/// for a page, and converts to a pull request (kReq) only after waiting out
/// its patience — the client-side half of the hybrid push/pull protocol.
/// pull_fraction is decided at timeout time (exactly like sim/hybrid's
/// impatient clients), not at completion time.
struct TuneWantStats {
  std::uint64_t issued = 0;
  std::uint64_t broadcast_served = 0;  ///< page aired within patience
  std::uint64_t pulled = 0;            ///< timed out -> converted to kReq
  std::uint64_t pull_completed = 0;    ///< timed-out wants whose kPull landed
  std::uint64_t undecided = 0;         ///< still waiting when the run ended
  double pull_fraction = 0.0;  ///< pulled / (broadcast_served + pulled)
  double mean_broadcast_wait_slots = 0.0;
  double mean_pull_wait_slots = 0.0;  ///< want issue -> kPull airing slot
  std::uint64_t pull_frames = 0;      ///< kPull frames received
  double mean_coalesced_waiters = 0.0;  ///< avg coalescing factor observed
};

/// Whole-session summary.
struct TuneSummary {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slots_seen = 0;       ///< distinct slot indices observed
  std::uint32_t generation = 0;       ///< generation on air at the end
  std::uint64_t swaps_observed = 0;
  std::uint64_t retunes = 0;
  std::uint64_t deadline_misses = 0;  ///< total over all groups
  double mean_access_time = 0.0;      ///< page-averaged E[wait]
  TuneRequestStats requests;          ///< traced per-request journeys
  TuneWantStats wants;                ///< impatient-client hybrid accounting
  std::vector<TuneGroupStats> groups;

  /// Single-line JSON object (parsable by obs/json): the tcsactl tune
  /// --json contract.
  std::string to_json() const;
};

/// Sequential (blocking-socket) broadcast listener.
class TuneClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t channel_mask = net::kAllChannels;
    bool record_pages = false;  ///< keep every frame for offline validation
    int io_timeout_ms = 10000;  ///< poll timeout for one read
  };

  /// Connects, reads the HELLO, and sends the initial subscription.
  explicit TuneClient(const Options& options);

  // --- what the HELLO / latest ANNOUNCE said ---
  const Workload& workload() const { return *workload_; }
  std::uint32_t generation() const noexcept { return generation_; }
  std::uint32_t slot_us() const noexcept { return slot_us_; }
  SlotCount channels() const noexcept { return channels_; }
  SlotCount cycle_length() const noexcept { return cycle_length_; }
  std::uint64_t tune_in_slot() const noexcept { return tune_in_slot_; }

  /// Changes the subscription mask; resets all reception chains.
  void retune(std::uint64_t mask);

  /// Receives until `slots` distinct slot indices have been observed
  /// (0 = until the server closes). Returns true on server EOF. With
  /// `slots` > 0 it also issues `requests` page asks spread evenly across
  /// the span (pages round-robin from 0): traced requests (request_page)
  /// when `patience_slots` < 0, else impatient wants (want_page) with that
  /// patience. Journeys are accounted in TuneSummary::requests and ::wants.
  bool run(std::uint64_t slots, std::uint64_t requests = 0,
           std::int64_t patience_slots = -1);

  /// Sends one traced kReq for `page` and pumps frames until its ack
  /// arrives (folding the exchange into the clock-offset estimate).
  /// Returns the minted trace id; the journey completes when the page next
  /// airs on a subscribed channel.
  std::uint64_t request_page(PageId page);

  /// Registers an impatient want for `page`: watch the broadcast, and only
  /// if the page does not air within `patience_slots` send a traced kReq so
  /// the server's pull plane schedules it. `patience_slots` 0 uses the
  /// page's own promised wait t_p under the current generation (the
  /// sim/hybrid impatient-client rule). Resolution happens inside the
  /// normal frame pump (run).
  void want_page(PageId page, std::int64_t patience_slots = 0);

  /// Sends a hot-swap request and pumps frames until the reply arrives.
  /// `channels` 0 keeps the server's count; `method` < 0 lets the server
  /// choose (SUSC when the bound allows, else PAMAD).
  SwapReply request_swap(const Workload& next, SlotCount channels = 0,
                         int method = -1);

  /// Aggregates everything received so far.
  TuneSummary summary() const;

  /// Recorded frames (empty unless Options::record_pages).
  const std::vector<ReceivedPage>& pages() const noexcept { return pages_; }

 private:
  struct Chain {
    std::int64_t last_slot = -1;  ///< -1: no reception yet
    SlotCount promise = 0;        ///< deadline granted at the last reception
  };
  struct PageStats {
    std::uint64_t receptions = 0;
    std::uint64_t chains = 0;
    std::uint64_t gaps = 0;
    double gap_sum = 0.0;
    double gap_sq_sum = 0.0;
    SlotCount max_gap = 0;
    std::uint64_t misses = 0;
  };

  bool read_frame(net::Frame& frame);   ///< false on orderly EOF
  void handle_frame(const net::Frame& frame);
  void apply_announcement(std::string_view payload, bool initial);
  void on_page(const net::PageMsg& msg);
  void on_pull(const net::PullMsg& msg);
  void on_req_ack(const net::ReqAckMsg& msg);
  void note_slot(std::uint64_t slot);   ///< slot bookkeeping + want timeouts
  /// Completes the journeys `page` closes, into the request/want stats.
  void complete(PageId page, std::uint64_t slot, bool via_pull);
  void send_all(std::string_view bytes);

  Options options_;
  net::Fd fd_;
  net::FrameDecoder decoder_;

  std::optional<Workload> workload_;
  std::uint32_t generation_ = 0;
  std::uint32_t slot_us_ = 0;
  SlotCount channels_ = 0;
  SlotCount cycle_length_ = 0;
  std::uint64_t tune_in_slot_ = 0;

  std::vector<Chain> chains_;      // one per page of the current workload
  std::vector<PageStats> stats_;   // parallel to chains_
  std::vector<ReceivedPage> pages_;

  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t slots_seen_ = 0;
  std::int64_t last_slot_seen_ = -1;
  std::uint64_t swaps_observed_ = 0;
  std::uint64_t retunes_ = 0;
  std::uint64_t misses_ = 0;

  std::optional<SwapReply> last_swap_reply_;

  ClientJourneys journeys_;  // open traced requests and impatient wants

  // --- impatient-want stats ---
  std::uint64_t wants_issued_ = 0;
  std::uint64_t wants_broadcast_ = 0;
  std::uint64_t wants_pulled_ = 0;
  std::uint64_t pulls_completed_ = 0;
  double want_broadcast_wait_slots_ = 0.0;  ///< sum, finalized to a mean
  double want_pull_wait_slots_ = 0.0;       ///< sum, finalized to a mean
  std::uint64_t pull_frames_ = 0;
  std::uint64_t pull_waiters_sum_ = 0;

  // --- traced request stats ---
  obs::ClockOffsetEstimator offset_;
  std::vector<double> req_delay_us_;
  std::vector<double> req_slack_us_;
  std::uint64_t reqs_sent_ = 0;
  std::uint64_t reqs_acked_ = 0;
  std::uint64_t reqs_completed_ = 0;
  std::uint64_t req_misses_ = 0;
};

}  // namespace tcsa
