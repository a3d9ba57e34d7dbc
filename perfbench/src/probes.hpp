// probes.hpp — the benchmark's timed calls into the program's layers, each
// wrapped in a span: scheduling (core), validation and the workload codec
// (model), seam planning and the pull demand table (server), and the
// request simulator (sim).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "receiver.hpp"
#include "server/air_server.hpp"

namespace perfbench {

/// The program the server computes for `workload` at `channels`
/// (choose_schedule: SUSC when the bound allows, else PAMAD); `ms` receives
/// the scheduling time.
std::shared_ptr<const ProgramInfo> schedule_program(
    const tcsa::Workload& workload, SlotCount channels, double* ms);

/// validate_program on the program, in ms; throws if the program the server
/// airs under sufficient channels is invalid.
double validate_ms(const ProgramInfo& info, bool must_be_valid);

/// One hello/kSwap workload payload encode plus parse, in us (mean over a
/// batch).
double workload_codec_us(const tcsa::Workload& workload);

/// plan_swap_seam from (from, from_offset) to `to`; `ms` gets its time.
tcsa::SwapPlan plan_seam(const ProgramInfo& from, SlotCount from_offset,
                         const ProgramInfo& to, double* ms);

/// One request as the simulator sees it: page and arrival in slot units
/// on the generation's own time axis.
using SimRequest = std::pair<PageId, double>;

/// simulate_requests on the program: mean max(0, wait - t_i) in slots.
double predicted_overdue_slots(const ProgramInfo& info,
                               const std::vector<SimRequest>& requests);

/// Replays (arrival slot, session, page) pull demands through
/// PullDemandTable::add and LWF pick at `channels` picks per slot; returns
/// the mean pick time in us.
struct PullDemand {
  std::uint64_t slot = 0;
  std::uint64_t session = 0;
  PageId page = 0;
};
double pull_pick_us(std::vector<PullDemand> demands, int channels);

}  // namespace perfbench
