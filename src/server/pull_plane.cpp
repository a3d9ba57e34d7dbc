#include "server/pull_plane.hpp"

#include <algorithm>
#include <bit>

#include "net/framing.hpp"
#include "obs/reqtrace.hpp"
#include "server/server_metrics.hpp"

namespace tcsa {

bool parse_pull_policy(const std::string& name, PullPolicy* out) noexcept {
  if (name == "lwf") {
    *out = PullPolicy::kLongestWaitFirst;
    return true;
  }
  if (name == "maxrt") {
    *out = PullPolicy::kMaxResponseTime;
    return true;
  }
  return false;
}

const char* pull_policy_name(PullPolicy policy) noexcept {
  switch (policy) {
    case PullPolicy::kLongestWaitFirst: return "lwf";
    case PullPolicy::kMaxResponseTime: return "maxrt";
  }
  return "?";
}

PullAdd PullDemandTable::add(PageId page, const PullWaiter& waiter) {
  auto [it, inserted] = entries_.try_emplace(page);
  Entry& entry = it->second;
  if (inserted) {
    entry.first_request_slot = waiter.arrival_slot;
  } else {
    for (const PullWaiter& existing : entry.waiters)
      if (existing.session_id == waiter.session_id) return PullAdd::kDuplicate;
  }
  entry.sum_arrival_slots += waiter.arrival_slot;
  entry.waiters.push_back(waiter);
  ++waiters_;
  return inserted ? PullAdd::kNewPage : PullAdd::kCoalesced;
}

std::size_t PullDemandTable::drop_session(std::uint64_t session_id) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    auto keep = std::remove_if(
        entry.waiters.begin(), entry.waiters.end(),
        [&](const PullWaiter& w) {
          if (w.session_id != session_id) return false;
          entry.sum_arrival_slots -= w.arrival_slot;
          ++dropped;
          return true;
        });
    entry.waiters.erase(keep, entry.waiters.end());
    it = entry.waiters.empty() ? entries_.erase(it) : std::next(it);
  }
  waiters_ -= dropped;
  return dropped;
}

std::size_t PullDemandTable::drop_pages_at_or_above(PageId page_limit) {
  std::size_t dropped = 0;
  for (auto it = entries_.lower_bound(page_limit); it != entries_.end();) {
    dropped += it->second.waiters.size();
    it = entries_.erase(it);
  }
  waiters_ -= dropped;
  return dropped;
}

std::optional<PullAiring> PullDemandTable::pick(PullPolicy policy,
                                                std::uint64_t now_slot) {
  if (entries_.empty()) return std::nullopt;
  auto best = entries_.begin();
  std::uint64_t best_score = 0;
  bool first = true;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const Entry& entry = it->second;
    std::uint64_t score = 0;
    if (policy == PullPolicy::kLongestWaitFirst) {
      // Total accumulated wait: each of the k waiters has waited
      // (now - arrival), so the sum is k*now - Σ arrivals. Arrivals are
      // <= now by construction, so the subtraction cannot wrap.
      score = entry.waiters.size() * now_slot - entry.sum_arrival_slots;
    } else {
      score = now_slot - entry.first_request_slot;
    }
    // Strict > keeps the first (lowest page id) of any tied set.
    if (first || score > best_score) {
      best = it;
      best_score = score;
      first = false;
    }
  }
  PullAiring airing;
  airing.page = best->first;
  airing.first_request_slot = best->second.first_request_slot;
  airing.waiters = std::move(best->second.waiters);
  waiters_ -= airing.waiters.size();
  entries_.erase(best);
  return airing;
}

std::uint64_t PullDemandTable::oldest_wait(
    std::uint64_t now_slot) const noexcept {
  std::uint64_t oldest = 0;
  for (const auto& [page, entry] : entries_)
    oldest = std::max(oldest, now_slot - entry.first_request_slot);
  return oldest;
}

void PendingRequests::open(std::uint64_t trace_id, PageId page,
                           std::uint64_t recv_us) {
  if (reqs_.size() >= kCap) {
    reqs_.erase(reqs_.begin());
    obs::counter_add(server_metrics().reqs_dropped, 1);
  }
  reqs_.push_back(PendingReq{trace_id, page, recv_us, PendingReq::kUnmatched,
                             false});
}

void PendingRequests::match_broadcast(std::uint64_t slot,
                                      std::uint64_t hit_mask,
                                      const BroadcastProgram& program,
                                      SlotCount column) {
  for (std::uint64_t bits = hit_mask; bits != 0; bits &= bits - 1)
    match(slot, program.at(std::countr_zero(bits), column), false);
}

bool PendingRequests::match(std::uint64_t slot, PageId page, bool via_pull) {
  bool matched = false;
  for (PendingReq& req : reqs_) {
    if (req.page != page || req.encoded_slot != PendingReq::kUnmatched)
      continue;
    req.encoded_slot = slot;
    req.via_pull = via_pull;
    TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerEncoded,
                   obs::trace_now_us(), slot);
    matched = true;
  }
  return matched;
}

void PendingRequests::retire(std::size_t queued_bytes) {
  const std::uint64_t now = obs::trace_now_us();
  std::erase_if(reqs_, [&](const PendingReq& req) {
    if (req.encoded_slot == PendingReq::kUnmatched) return false;
    TCSA_REQ_EVENT(req.trace_id, obs::ReqStage::kServerFlushed, now,
                   queued_bytes);
    obs::counter_add(server_metrics().reqs_completed, 1);
    if (req.via_pull) obs::counter_add(server_metrics().reqs_pull_served, 1);
    // Separate service-time populations: the pull plane exists exactly for
    // the requests whose broadcast wait was unacceptable, so mixing them
    // into one distribution would hide the tail it fixes.
    obs::histogram_observe(req.via_pull ? server_metrics().pull_delay
                                        : server_metrics().req_delay,
                           static_cast<double>(now - req.recv_us));
    return true;
  });
}

PullPlane::PullPlane(std::size_t channels, PullPolicy policy)
    : channels_(channels), policy_(policy) {}

void PullPlane::add_demand(std::uint64_t session_id, std::uint64_t trace_id,
                           PageId page, std::uint64_t slot,
                           SlotCount page_count) {
  if (page >= static_cast<PageId>(page_count)) {
    obs::counter_add(server_metrics().pull_unknown, 1);
    return;
  }
  const PullAdd outcome = table_.add(
      page, PullWaiter{session_id, trace_id, slot, obs::trace_now_us()});
  if (outcome == PullAdd::kDuplicate)
    obs::counter_add(server_metrics().pull_dups, 1);
  else
    obs::counter_add(server_metrics().pull_reqs, 1);
}

void PullPlane::drop_session(std::uint64_t session_id) {
  const std::size_t dropped = table_.drop_session(session_id);
  if (dropped > 0)
    obs::counter_add(server_metrics().pull_waiters_dropped, dropped);
}

std::size_t PullPlane::drop_pages_at_or_above(PageId page_limit) {
  const std::size_t dropped = table_.drop_pages_at_or_above(page_limit);
  if (dropped > 0)
    obs::counter_add(server_metrics().pull_waiters_dropped, dropped);
  return dropped;
}

void PullPlane::schedule(std::uint64_t slot, std::uint32_t generation,
                         std::vector<net::SharedBuf>& frames,
                         std::vector<PageId>& pages) {
  if (channels_ == 0) return;
  [[maybe_unused]] const std::uint64_t now_us = obs::trace_now_us();
  for (std::size_t i = 0; i < channels_; ++i) {
    std::optional<PullAiring> airing = table_.pick(policy_, slot);
    if (!airing) break;
    frames.push_back(net::SharedBuf::wrap(net::encode(
        net::PullMsg{.slot = slot, .generation = generation,
                     .page = airing->page,
                     .waiters = static_cast<std::uint32_t>(
                         airing->waiters.size())})));
    pages.push_back(airing->page);
    ++airings_;
    waiters_served_ += airing->waiters.size();
    obs::counter_add(server_metrics().frames_encoded, 1);
    obs::counter_add(server_metrics().pull_airings, 1);
    obs::counter_add(server_metrics().pull_waiters_served,
                     airing->waiters.size());
    for (const PullWaiter& waiter : airing->waiters)
      TCSA_REQ_EVENT(waiter.trace_id, obs::ReqStage::kServerPullAired,
                     now_us, airing->waiters.size());
  }
  obs::gauge_set(server_metrics().pull_pending_pages_gauge,
                 static_cast<double>(table_.pending_pages()));
  obs::gauge_set(server_metrics().pull_pending_waiters_gauge,
                 static_cast<double>(table_.pending_waiters()));
  obs::gauge_set(server_metrics().pull_oldest_wait_gauge,
                 static_cast<double>(table_.oldest_wait(slot)));
}

}  // namespace tcsa
