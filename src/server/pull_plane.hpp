// pull_plane.hpp — the request plane: traced page requests and the
// on-demand half of hybrid push/pull serving.
//
// The paper's Section-1 scenario has impatient clients fall back to an
// explicit request when the broadcast wait would blow their deadline. This
// module is the server side of that fallback, in two halves:
//  - per session (PendingRequests, owned by the session's loop): the open
//    kReq requests, matched against broadcast and pull airings and retired
//    into the two service-delay populations once their slot flushes;
//  - on loop 0 (PullPlane): a per-page pending-request table (the "demand
//    table"), the online policy that picks which pages the pull channels
//    air next, and their kPull frames.
//
// Two policies from the online-scheduling literature (PAPERS.md):
//  - Longest-Wait-First (Edmonds et al., arXiv:0906.2395): air the page with
//    the largest TOTAL accumulated waiting time across its coalesced
//    waiters. Optimizes average flow time; a popular page with many waiters
//    accrues wait k times faster than a lone request.
//  - Max-response-time (Chang et al., arXiv:0906.2048): air the page whose
//    OLDEST waiter has waited longest (FIFO by first request). Optimizes the
//    worst-case response time; immune to starvation by popular pages.
//
// Coalescing is the whole point of pull-over-broadcast: one airing satisfies
// every pending waiter of that page, so the table keys demand by page and a
// pick() pops the page together with all of its waiters.
//
// Threading: nothing here is thread-safe. AirServer gives the PullPlane to
// loop 0 (the airing plane) — other loops forward demands via loop->post(),
// the same discipline as swap requests (DESIGN.md §7) — and each session's
// PendingRequests to the loop that owns the session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/program.hpp"
#include "model/types.hpp"
#include "net/shared_buf.hpp"

namespace tcsa {

/// Online pull-scheduling policy, selected by `serve --pull-policy`.
enum class PullPolicy : std::uint8_t {
  kLongestWaitFirst,  ///< max total accumulated wait ("lwf", default)
  kMaxResponseTime,   ///< max oldest-waiter age ("maxrt")
};

/// Parses "lwf" / "maxrt". Returns false (leaving `out` untouched) on any
/// other spelling so the CLI can report the bad flag value.
bool parse_pull_policy(const std::string& name, PullPolicy* out) noexcept;

/// Canonical spelling of a policy, inverse of parse_pull_policy.
const char* pull_policy_name(PullPolicy policy) noexcept;

/// One pending requester of a page. `session_id` is the server's monotonic
/// session id (stable across fd reuse); `trace_id` threads the request
/// journey through to the kPull airing span.
struct PullWaiter {
  std::uint64_t session_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t arrival_slot = 0;
  std::uint64_t arrival_us = 0;
};

/// Outcome of PullDemandTable::add, in metric terms.
enum class PullAdd : std::uint8_t {
  kNewPage,    ///< first pending demand for this page
  kCoalesced,  ///< joined an existing page entry (another session)
  kDuplicate,  ///< same session already waits for this page; not re-added
};

/// A popped airing decision: the page plus every coalesced waiter it
/// satisfies. `waiters.size()` is the coalescing factor of this airing.
struct PullAiring {
  PageId page = 0;
  std::uint64_t first_request_slot = 0;
  std::vector<PullWaiter> waiters;
};

/// Per-page pending-request table with O(pages) policy evaluation. The
/// pending-page population is bounded by the workload's page count (demand
/// coalesces), so a linear scan per airing slot is cheap and keeps the
/// aggregate LWF statistic (count·now − Σ arrivals) exact without a heap
/// whose keys decay with time.
class PullDemandTable {
 public:
  /// Registers demand for `page` at `now_slot`. A session already waiting
  /// for the page is NOT added twice — the airing would satisfy it once.
  PullAdd add(PageId page, const PullWaiter& waiter);

  /// Removes every waiter belonging to `session_id` (requester disconnect).
  /// Pages left with no waiters disappear from the table entirely, so a
  /// vanished audience can never win a pull slot. Returns waiters removed.
  std::size_t drop_session(std::uint64_t session_id);

  /// Drops every entry for pages >= `page_limit` — the swap hook: a new
  /// generation may shrink the page universe, and demand for pages no
  /// longer in any program must not dangle. Returns waiters dropped.
  std::size_t drop_pages_at_or_above(PageId page_limit);

  /// Pops the page the policy would air at `now_slot`, with all of its
  /// waiters. Empty table -> nullopt. Ties break toward the lower page id
  /// so picks are deterministic under test.
  std::optional<PullAiring> pick(PullPolicy policy, std::uint64_t now_slot);

  std::size_t pending_pages() const noexcept { return entries_.size(); }
  std::size_t pending_waiters() const noexcept { return waiters_; }

  /// Age (slots) of the oldest pending request; 0 when the table is empty.
  std::uint64_t oldest_wait(std::uint64_t now_slot) const noexcept;

  bool has_page(PageId page) const { return entries_.count(page) != 0; }

 private:
  struct Entry {
    std::uint64_t first_request_slot = 0;
    std::uint64_t sum_arrival_slots = 0;  // LWF: Σ arrival over waiters
    std::vector<PullWaiter> waiters;
  };

  // Ordered map: deterministic iteration gives deterministic tie-breaks.
  std::map<PageId, Entry> entries_;
  std::size_t waiters_ = 0;
};

/// One open traced page request (kReq). `encoded_slot` flips from
/// kUnmatched when an airing of the page enters the session's queue, and
/// the entry retires after that slot's flush.
struct PendingReq {
  static constexpr std::uint64_t kUnmatched = ~0ull;
  std::uint64_t trace_id = 0;
  PageId page = 0;
  std::uint64_t recv_us = 0;     ///< server trace clock at kReq parse
  std::uint64_t encoded_slot = kUnmatched;
  bool via_pull = false;         ///< resolved by a kPull airing
};

/// A session's open traced requests (usually none), session-local so
/// completion needs no cross-shard lookups: a request resolves when its
/// page next airs on a channel the session subscribes to, or on a kPull
/// airing.
class PendingRequests {
 public:
  /// Open requests a session may hold; the oldest is dropped beyond this
  /// (a client re-requesting faster than pages air is misbehaving).
  static constexpr std::size_t kCap = 64;

  bool empty() const noexcept { return reqs_.empty(); }
  const std::vector<PendingReq>& entries() const noexcept { return reqs_; }

  /// Opens a request received at `recv_us`, dropping (and counting in
  /// reqs_dropped) the oldest when already at the cap.
  void open(std::uint64_t trace_id, PageId page, std::uint64_t recv_us);

  /// Broadcast airing of `slot`, which aired `program`'s `column`:
  /// matches every open request whose page aired on a channel of
  /// `hit_mask` (the session's subscribed channels that aired).
  void match_broadcast(std::uint64_t slot, std::uint64_t hit_mask,
                       const BroadcastProgram& program, SlotCount column);

  /// kPull airing of `page` at `slot`: matches every open request for the
  /// page (duplicates resolve off the one frame). True when any matched —
  /// the session then needs the frame.
  bool match_pull(std::uint64_t slot, PageId page) {
    return match(slot, page, true);
  }

  /// Retires the matched requests once their slot has flushed, leaving
  /// `queued_bytes` behind, into the broadcast or pull delay population.
  void retire(std::size_t queued_bytes);

 private:
  bool match(std::uint64_t slot, PageId page, bool via_pull);

  std::vector<PendingReq> reqs_;
};

/// The loop-0 half of the request plane: demand table, per-slot picks and
/// their kPull frames. With zero channels the plane is off: schedule()
/// airs nothing.
class PullPlane {
 public:
  PullPlane(std::size_t channels, PullPolicy policy);

  std::size_t channels() const noexcept { return channels_; }

  /// Registers demand at `slot`. A page outside [0, page_count) is counted
  /// and dropped — its kReqAck already went out, and nothing can ever air
  /// for it.
  void add_demand(std::uint64_t session_id, std::uint64_t trace_id,
                  PageId page, std::uint64_t slot, SlotCount page_count);

  /// Requester disconnect: its waiters are dropped and counted.
  void drop_session(std::uint64_t session_id);

  /// Swap hook: drops (and counts) demand for pages >= `page_limit`.
  /// Returns the waiters dropped.
  std::size_t drop_pages_at_or_above(PageId page_limit);

  /// Pops up to channels() pages for `slot` by the policy and appends one
  /// kPull frame per page (stamped with `generation`) to `frames`, its page
  /// to `pages`, and emits the per-waiter kServerPullAired journey events.
  void schedule(std::uint64_t slot, std::uint32_t generation,
                std::vector<net::SharedBuf>& frames,
                std::vector<PageId>& pages);

  const PullDemandTable& table() const noexcept { return table_; }
  std::uint64_t airings() const noexcept { return airings_; }
  std::uint64_t waiters_served() const noexcept { return waiters_served_; }

 private:
  std::size_t channels_;
  PullPolicy policy_;
  PullDemandTable table_;
  std::uint64_t airings_ = 0;         // kPull airings so far (/healthz)
  std::uint64_t waiters_served_ = 0;  // waiters those airings satisfied
};

}  // namespace tcsa
