#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "online/adaptive.hpp"
#include "server/pull_plane.hpp"
#include "sim/broadcast_sim.hpp"
#include "spans.hpp"
#include "util/wire.hpp"

namespace perfbench {
namespace {

double ms_since(std::int64_t t0) {
  return static_cast<double>(spans::now_ns() - t0) / 1e6;
}

}  // namespace

std::shared_ptr<const ProgramInfo> schedule_program(
    const tcsa::Workload& workload, SlotCount channels, double* ms) {
  spans::Span span("core.choose_schedule");
  const std::int64_t t0 = spans::now_ns();
  tcsa::ScheduleOutcome outcome = tcsa::choose_schedule(workload, channels);
  *ms = ms_since(t0);
  return std::make_shared<const ProgramInfo>(
      ProgramInfo{workload, std::move(outcome.program),
                  tcsa::workload_to_binary(workload)});
}

double validate_ms(const ProgramInfo& info, bool must_be_valid) {
  spans::Span span("model.validate_program");
  const std::int64_t t0 = spans::now_ns();
  const tcsa::ValidityReport report =
      tcsa::validate_program(info.program, info.workload);
  const double ms = ms_since(t0);
  if (must_be_valid && !report.valid)
    throw std::runtime_error("the program for a sufficient channel count is "
                             "invalid: " + report.violations.front());
  return ms;
}

double workload_codec_us(const tcsa::Workload& workload) {
  spans::Span span("model.workload_codec");
  constexpr int kRounds = 2000;
  const std::int64_t t0 = spans::now_ns();
  SlotCount checksum = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::string payload;
    tcsa::wire_put_u32(payload, 0);
    tcsa::wire_put_u8(payload, 0xff);
    tcsa::append_workload_binary(payload, workload);
    tcsa::WireReader reader(payload);
    reader.read_u32();
    reader.read_u8();
    checksum += tcsa::workload_from_binary(reader.read_rest()).total_pages();
  }
  if (checksum != workload.total_pages() * kRounds)
    throw std::runtime_error("workload codec round trip changed the workload");
  return static_cast<double>(spans::now_ns() - t0) / 1e3 / kRounds;
}

tcsa::SwapPlan plan_seam(const ProgramInfo& from, SlotCount from_offset,
                         const ProgramInfo& to, double* ms) {
  spans::Span span("server.plan_swap_seam");
  const std::int64_t t0 = spans::now_ns();
  const tcsa::SwapPlan plan = tcsa::plan_swap_seam(
      from.workload, from.program, from_offset, to.workload, to.program);
  *ms = ms_since(t0);
  return plan;
}

double predicted_overdue_slots(const ProgramInfo& info,
                               const std::vector<SimRequest>& requests) {
  spans::Span span("sim.simulate_requests");
  if (requests.empty()) return 0.0;
  std::vector<tcsa::Request> reqs;
  reqs.reserve(requests.size());
  for (const auto& [page, arrival] : requests)
    reqs.push_back(tcsa::Request{page, std::max(0.0, arrival)});
  const tcsa::AppearanceIndex index(info.program, info.workload.total_pages());
  return tcsa::simulate_requests(index, info.workload, reqs).avg_delay;
}

double pull_pick_us(std::vector<PullDemand> demands, int channels) {
  spans::Span span("server.pull_replay");
  if (demands.empty()) return 0.0;
  std::stable_sort(demands.begin(), demands.end(),
                   [](const PullDemand& a, const PullDemand& b) {
                     return a.slot < b.slot;
                   });
  tcsa::PullDemandTable table;
  std::int64_t pick_ns = 0;
  std::uint64_t picks = 0;
  std::size_t next = 0;
  std::uint64_t trace = 0;
  for (std::uint64_t slot = demands.front().slot;
       next < demands.size() || table.pending_pages() > 0; ++slot) {
    for (; next < demands.size() && demands[next].slot <= slot; ++next)
      table.add(demands[next].page,
                tcsa::PullWaiter{demands[next].session, ++trace, slot, 0});
    const std::int64_t t0 = spans::now_ns();
    for (int c = 0; c < channels; ++c) {
      if (!table.pick(tcsa::PullPolicy::kLongestWaitFirst, slot)) break;
      ++picks;
    }
    pick_ns += spans::now_ns() - t0;
  }
  return picks > 0 ? static_cast<double>(pick_ns) / 1e3 /
                         static_cast<double>(picks)
                   : 0.0;
}

}  // namespace perfbench
