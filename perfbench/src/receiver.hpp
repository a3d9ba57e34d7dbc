// receiver.hpp — the benchmark's client side of one session: protocol state,
// wire-correctness checks and per-request accounting, with no sockets (the
// load generator feeds it decoded frames; the self-tests feed it crafted
// ones).
//
// Checks, each of which throws WireViolation:
//  - every kHello/kAnnounce carries a workload the benchmark generated, with
//    the channel count and cycle of the program the benchmark computed for it;
//  - every kPage is the page that program airs at (channel, slot), under the
//    rotation the seam planner picks for a swap and the activation slot the
//    swap reply or announce states;
//  - generations never go backwards, and slots never run backwards;
//  - every kPull answers a kReq this session sent and no earlier kPull
//    answered;
//  - every kReqAck answers a kReq of this session and promises the page's
//    expected time t_i under the generation it names;
//  - with `exact_slot_check` (sufficient channels), the delivering slot minus
//    the ack's next_slot is at most t_i for every request, unless a seam
//    whose plan reported positive lateness lies between them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"

namespace perfbench {

struct WireViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A generated workload and the program the benchmark expects on air for it.
struct ProgramInfo {
  tcsa::Workload workload;
  tcsa::BroadcastProgram program;
  std::string binary;  ///< model/serialize binary form (the hello payload)
};

/// One generation as the benchmark predicts it.
struct GenInfo {
  std::shared_ptr<const ProgramInfo> program;
  SlotCount offset = 0;          ///< airing rotation from the seam plan
  std::int64_t start_slot = -1;  ///< activation slot; -1 until known
  SlotCount seam_lateness = 0;   ///< of the seam that put it on air
};

/// Predicted generations by id, shared by every session of a run.
class Registry {
 public:
  void add(std::uint32_t gen, GenInfo info);
  std::optional<GenInfo> find(std::uint32_t gen) const;
  /// Records the activation slot of `gen`; a second report must agree.
  void set_start(std::uint32_t gen, std::int64_t slot);

 private:
  mutable std::mutex mutex_;
  std::map<std::uint32_t, GenInfo> gens_;
};

/// One attempted request, as the client saw it.
struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;   ///< kReq sent; -1 = served before asking
  std::int64_t done_ns = -1;   ///< page received; -1 = never
  PageId page = 0;
  std::uint32_t patience = 0;
  SlotCount t_slots = 0;       ///< the page's t_i when the request opened
  std::int64_t deliver_slot = -1;
  std::int64_t issue_slot = -1;   ///< last slot seen when the request opened
  std::int64_t ack_next_slot = -1;
  std::uint32_t gen_at_open = 0;
  bool acked = false;
  bool via_pull = false;
};

/// A decoded kSwapReply.
struct SwapReplyInfo {
  bool accepted = false;
  std::uint32_t generation = 0;
  std::uint64_t activation_slot = 0;
  std::int64_t seam_lateness = 0;
  std::string error;
};

class Receiver {
 public:
  /// `session` tags this session's trace ids.
  Receiver(Registry& registry, std::uint32_t slot_us,
           std::uint32_t session, bool exact_slot_check);

  /// Consumes one server frame received at `now_ns`.
  void on_frame(const tcsa::net::Frame& frame, std::int64_t now_ns);

  /// Opens a request due at `due_ns` (absolute). A patient request sends its
  /// kReq at once; an impatient want waits `patience` slots for the
  /// broadcast first. Frames to send are appended to the outbox.
  void open(PageId page, std::uint32_t patience, std::int64_t due_ns,
            std::int64_t now_ns);

  /// Bytes waiting to be sent (kReq frames); cleared by the caller.
  std::string& outbox() noexcept { return outbox_; }

  /// Any opened request not yet served, or sent and not yet acked.
  bool outstanding() const noexcept { return open_count_ > 0 || unacked_ > 0; }
  bool greeted() const noexcept { return gen_ != 0; }
  std::uint32_t generation() const noexcept { return gen_; }
  std::uint64_t pages_received() const noexcept { return pages_; }

  /// Records (slot, arrival ns) of the first frame of every slot while on.
  void set_recording(bool on) noexcept { recording_ = on; }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& slot_arrivals()
      const noexcept {
    return slot_arrivals_;
  }
  const std::vector<RequestRecord>& requests() const noexcept {
    return requests_;
  }
  /// The latest swap reply, consumed by the caller.
  std::optional<SwapReplyInfo>& swap_reply() noexcept { return swap_reply_; }

 private:
  void on_program(std::string_view payload, bool announce);
  void on_page(std::string_view payload, std::int64_t now_ns);
  void on_pull(std::string_view payload, std::int64_t now_ns);
  void on_ack(std::string_view payload);
  void on_swap_reply(std::string_view payload);
  void on_new_slot(std::int64_t slot, std::int64_t now_ns);
  void send_request(std::size_t index, std::int64_t now_ns);
  void complete(PageId page, std::int64_t slot, std::int64_t now_ns,
                bool via_pull);
  void check_promise(const RequestRecord& r) const;

  Registry& registry_;
  std::uint32_t slot_us_;
  std::uint32_t session_;
  bool exact_slot_check_;

  std::uint32_t gen_ = 0;
  GenInfo cur_;
  std::vector<std::pair<std::int64_t, SlotCount>> seams_;  // start, lateness
  std::int64_t last_slot_ = -1;

  std::vector<RequestRecord> requests_;
  std::map<PageId, std::vector<std::size_t>> open_by_page_;
  std::vector<std::size_t> wants_;  // impatient, kReq not sent yet
  std::size_t open_count_ = 0;
  std::size_t unacked_ = 0;
  std::map<PageId, std::uint32_t> reqs_sent_;
  std::map<PageId, std::uint32_t> pulls_answered_;
  std::string outbox_;

  bool recording_ = false;
  std::vector<std::pair<std::int64_t, std::int64_t>> slot_arrivals_;
  std::optional<SwapReplyInfo> swap_reply_;
  std::uint64_t pages_ = 0;
};

}  // namespace perfbench
