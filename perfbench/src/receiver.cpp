#include "receiver.hpp"

#include <algorithm>

#include "util/wire.hpp"

namespace perfbench {
namespace {

[[noreturn]] void violation(const std::string& what) {
  throw WireViolation(what);
}

std::uint64_t trace_id(std::uint32_t session, std::size_t index) {
  return (std::uint64_t{session} << 32) | static_cast<std::uint64_t>(index);
}

}  // namespace

void Registry::add(std::uint32_t gen, GenInfo info) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gens_[gen] = std::move(info);
}

std::optional<GenInfo> Registry::find(std::uint32_t gen) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gens_.find(gen);
  if (it == gens_.end()) return std::nullopt;
  return it->second;
}

void Registry::set_start(std::uint32_t gen, std::int64_t slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gens_.find(gen);
  if (it == gens_.end())
    violation("generation " + std::to_string(gen) + " was never requested");
  if (it->second.start_slot >= 0 && it->second.start_slot != slot)
    violation("generation " + std::to_string(gen) + " activates at slot " +
              std::to_string(slot) + ", announced before as " +
              std::to_string(it->second.start_slot));
  it->second.start_slot = slot;
}

Receiver::Receiver(Registry& registry, std::uint32_t slot_us,
                   std::uint32_t session, bool exact_slot_check)
    : registry_(registry),
      slot_us_(slot_us),
      session_(session),
      exact_slot_check_(exact_slot_check) {}

void Receiver::on_frame(const tcsa::net::Frame& frame, std::int64_t now_ns) {
  try {
    switch (frame.type) {
      case tcsa::net::FrameType::kHello:
        return on_program(frame.payload, false);
      case tcsa::net::FrameType::kAnnounce:
        return on_program(frame.payload, true);
      case tcsa::net::FrameType::kPage:
        return on_page(frame.payload, now_ns);
      case tcsa::net::FrameType::kPull:
        return on_pull(frame.payload, now_ns);
      case tcsa::net::FrameType::kReqAck:
        return on_ack(frame.payload);
      case tcsa::net::FrameType::kSwapReply:
        return on_swap_reply(frame.payload);
      default:
        violation("unexpected frame type " +
                  std::to_string(static_cast<int>(frame.type)));
    }
  } catch (const std::invalid_argument& e) {
    violation(std::string("malformed frame: ") + e.what());
  }
}

void Receiver::on_program(std::string_view payload, bool announce) {
  tcsa::WireReader r(payload);
  const std::uint32_t gen = r.read_u32();
  const std::uint32_t slot_us = r.read_u32();
  const std::uint32_t channels = r.read_u32();
  const std::uint32_t cycle = r.read_u32();
  const std::int64_t next_slot = static_cast<std::int64_t>(r.read_u64());
  const std::string_view workload = r.read_rest();
  if (gen < gen_ || (announce && gen == gen_))
    violation("generation went back from " + std::to_string(gen_) + " to " +
              std::to_string(gen));
  if (slot_us != slot_us_) violation("hello states another slot length");
  std::optional<GenInfo> info = registry_.find(gen);
  if (!info) violation("generation " + std::to_string(gen) + " is unknown");
  const tcsa::BroadcastProgram& program = info->program->program;
  if (workload != info->program->binary)
    violation("generation " + std::to_string(gen) +
              " airs a workload the benchmark did not send");
  if (channels != program.channels() || cycle != program.cycle_length())
    violation("generation " + std::to_string(gen) + " airs " +
              std::to_string(channels) + "x" + std::to_string(cycle) +
              ", expected " + std::to_string(program.channels()) + "x" +
              std::to_string(program.cycle_length()));
  if (announce) {
    // The announce goes out as the generation activates, so its next_slot
    // is the activation slot.
    registry_.set_start(gen, next_slot);
    info->start_slot = next_slot;
    seams_.emplace_back(next_slot, info->seam_lateness);
  }
  if (info->start_slot < 0)
    violation("generation " + std::to_string(gen) + " has no start slot");
  gen_ = gen;
  cur_ = std::move(*info);
}

void Receiver::on_new_slot(std::int64_t slot, std::int64_t now_ns) {
  if (recording_) slot_arrivals_.emplace_back(slot, now_ns);
  // Wants that saw `patience` slots go by without their page ask for it.
  std::size_t kept = 0;
  for (const std::size_t i : wants_) {
    const RequestRecord& r = requests_[i];
    if (r.done_ns >= 0) continue;
    if (r.issue_slot + static_cast<std::int64_t>(r.patience) < slot)
      send_request(i, now_ns);
    else
      wants_[kept++] = i;
  }
  wants_.resize(kept);
}

void Receiver::on_page(std::string_view payload, std::int64_t now_ns) {
  tcsa::WireReader r(payload);
  const auto slot = static_cast<std::int64_t>(r.read_u64());
  const std::uint32_t gen = r.read_u32();
  const std::uint32_t channel = r.read_u32();
  const PageId page = r.read_u32();
  r.expect_done();
  if (gen_ == 0) violation("kPage before the hello");
  if (gen < gen_)
    violation("stale generation: kPage of generation " + std::to_string(gen) +
              " after generation " + std::to_string(gen_));
  if (gen > gen_)
    violation("kPage of generation " + std::to_string(gen) +
              " before its announce");
  if (slot < last_slot_) violation("slots ran backwards");
  if (slot < cur_.start_slot) violation("kPage before its generation started");
  const tcsa::BroadcastProgram& program = cur_.program->program;
  if (channel >= program.channels()) violation("kPage on a channel off air");
  const SlotCount cycle = program.cycle_length();
  const SlotCount column = (cur_.offset + (slot - cur_.start_slot)) % cycle;
  const PageId expected = program.at(channel, column);
  if (page != expected)
    violation("slot " + std::to_string(slot) + " channel " +
              std::to_string(channel) + " aired page " +
              std::to_string(page) + ", the program has " +
              std::to_string(expected));
  ++pages_;
  if (slot != last_slot_) {
    on_new_slot(slot, now_ns);
    last_slot_ = slot;
  }
  complete(page, slot, now_ns, false);
}

void Receiver::on_pull(std::string_view payload, std::int64_t now_ns) {
  tcsa::WireReader r(payload);
  const auto slot = static_cast<std::int64_t>(r.read_u64());
  const std::uint32_t gen = r.read_u32();
  const PageId page = r.read_u32();
  const std::uint32_t waiters = r.read_u32();
  r.expect_done();
  if (gen_ == 0) violation("kPull before the hello");
  if (gen < gen_) violation("stale generation on a kPull");
  if (waiters == 0) violation("kPull with no waiters");
  if (page >= cur_.program->workload.total_pages())
    violation("kPull for a page outside the workload");
  std::uint32_t& answered = pulls_answered_[page];
  if (answered >= reqs_sent_[page])
    violation("kPull for page " + std::to_string(page) +
              " that this session did not request");
  ++answered;
  if (slot > last_slot_) {
    on_new_slot(slot, now_ns);
    last_slot_ = slot;
  }
  complete(page, slot, now_ns, true);
}

void Receiver::on_ack(std::string_view payload) {
  tcsa::WireReader r(payload);
  const std::uint64_t id = r.read_u64();
  r.read_u64();  // server receive stamp
  r.read_u64();  // server send stamp
  const auto next_slot = static_cast<std::int64_t>(r.read_u64());
  const PageId page = r.read_u32();
  const std::uint32_t expected = r.read_u32();
  const std::uint32_t gen = r.read_u32();
  r.expect_done();
  const std::uint64_t index = id & 0xffffffffu;
  if ((id >> 32) != session_ || index >= requests_.size() ||
      requests_[index].sent_ns < 0 || requests_[index].acked)
    violation("kReqAck for a request this session did not send");
  RequestRecord& req = requests_[index];
  if (page != req.page) violation("kReqAck names another page");
  if (gen < req.gen_at_open) violation("kReqAck of an older generation");
  const std::optional<GenInfo> info = registry_.find(gen);
  if (!info) violation("kReqAck of an unknown generation");
  if (expected != static_cast<std::uint32_t>(
                      info->program->workload.expected_time_of(page)))
    violation("kReqAck promises " + std::to_string(expected) +
              " slots for page " + std::to_string(page) + ", t_i is " +
              std::to_string(info->program->workload.expected_time_of(page)));
  req.acked = true;
  req.ack_next_slot = next_slot;
  req.t_slots = expected;
  --unacked_;
  if (req.done_ns >= 0) check_promise(req);
}

void Receiver::on_swap_reply(std::string_view payload) {
  tcsa::WireReader r(payload);
  SwapReplyInfo reply;
  reply.accepted = r.read_u8() != 0;
  reply.generation = r.read_u32();
  reply.activation_slot = r.read_u64();
  reply.seam_lateness = r.read_i64();
  reply.error = std::string(r.read_rest());
  if (reply.accepted)
    registry_.set_start(
        reply.generation, static_cast<std::int64_t>(reply.activation_slot));
  swap_reply_ = std::move(reply);
}

void Receiver::open(PageId page, std::uint32_t patience, std::int64_t due_ns,
                    std::int64_t now_ns) {
  if (gen_ == 0) violation("request before the hello");
  RequestRecord req;
  req.due_ns = due_ns;
  req.page = page;
  req.patience = patience;
  req.t_slots = cur_.program->workload.expected_time_of(page);
  req.issue_slot = last_slot_;
  req.gen_at_open = gen_;
  const std::size_t index = requests_.size();
  requests_.push_back(req);
  open_by_page_[page].push_back(index);
  ++open_count_;
  if (patience == 0)
    send_request(index, now_ns);
  else
    wants_.push_back(index);
}

void Receiver::send_request(std::size_t index, std::int64_t now_ns) {
  RequestRecord& req = requests_[index];
  req.sent_ns = now_ns;
  ++reqs_sent_[req.page];
  ++unacked_;
  std::string payload;
  tcsa::wire_put_u64(payload, trace_id(session_, index));
  tcsa::wire_put_u32(payload, req.page);
  tcsa::net::append_frame(outbox_, tcsa::net::FrameType::kReq, payload);
}

void Receiver::complete(PageId page, std::int64_t slot, std::int64_t now_ns,
                        bool via_pull) {
  const auto it = open_by_page_.find(page);
  if (it == open_by_page_.end()) return;
  for (const std::size_t i : it->second) {
    RequestRecord& req = requests_[i];
    req.done_ns = now_ns;
    req.deliver_slot = slot;
    req.via_pull = via_pull;
    --open_count_;
    if (req.acked) check_promise(req);
  }
  open_by_page_.erase(it);
}

void Receiver::check_promise(const RequestRecord& r) const {
  if (!exact_slot_check_ || r.via_pull) return;
  if (r.deliver_slot - r.ack_next_slot <= r.t_slots) return;
  for (const auto& [start, lateness] : seams_)
    if (lateness > 0 && start >= r.ack_next_slot && start <= r.deliver_slot)
      return;  // the seam plan said it could not keep every promise
  violation("page " + std::to_string(r.page) + " delivered at slot " +
            std::to_string(r.deliver_slot) + ", " +
            std::to_string(r.deliver_slot - r.ack_next_slot) +
            " slots after the ack's next_slot; t_i is " +
            std::to_string(r.t_slots));
}

}  // namespace perfbench
