#include "server/generation.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "model/serialize.hpp"
#include "obs/trace.hpp"
#include "online/adaptive.hpp"
#include "util/contracts.hpp"

namespace tcsa {
namespace {

/// One common page's seam state: the promise the old program left it, and
/// its completions so far in the time-ordered sweep of the new program, each
/// in (0, T_new]. promised == 0: not a common page on air in the old
/// program; last == 0: not yet seen in the new one.
struct SeamPage {
  std::uint32_t promised = 0;
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

}  // namespace

SwapPlan plan_swap_seam(const Workload& current_workload,
                        const BroadcastProgram& current_program,
                        SlotCount current_offset,
                        const Workload& next_workload,
                        const BroadcastProgram& next_program) {
  const SlotCount old_cycle = current_program.cycle_length();
  const SlotCount cycle = next_program.cycle_length();
  TCSA_REQUIRE(std::max(old_cycle, cycle) <
                   std::numeric_limits<std::uint32_t>::max(),
               "plan_swap_seam: cycle too long for 32-bit completion times");
  const SlotCount old_pages = current_workload.total_pages();
  const SlotCount new_pages = next_workload.total_pages();
  const SlotCount common = std::min(old_pages, new_pages);
  std::vector<SeamPage> seam(static_cast<std::size_t>(common));

  // Outstanding promise per common page: the wait the continued old cycle
  // would have delivered from the boundary. Slot s airs ((s - phase) mod
  // T_old) + 1 slots after it, so the promise is the minimum of that over
  // the page's slots — one pass in any order.
  const SlotCount phase = (current_offset % old_cycle + old_cycle) % old_cycle;
  for (SlotCount ch = 0; ch < current_program.channels(); ++ch) {
    for (SlotCount s = 0; s < old_cycle; ++s) {
      const PageId p = current_program.at(ch, s);
      if (p == kNoPage) continue;
      TCSA_REQUIRE(static_cast<SlotCount>(p) < old_pages,
                   "plan_swap_seam: program references unknown page");
      if (static_cast<SlotCount>(p) >= common) continue;
      const auto wait =
          static_cast<std::uint32_t>((s - phase + old_cycle) % old_cycle + 1);
      std::uint32_t& promised = seam[p].promised;
      if (promised == 0 || wait < promised) promised = wait;
    }
  }

  // At rotation r, page p next completes at its first appearance a_k with
  // a_{k-1} <= r < a_k (past the last one it wraps to a_0 + T), so the
  // seam lateness is L(r) = max_p(a_k - promised_p) - r. Each page's
  // appearances cut [0, T) into intervals on which a_k - promised_p is
  // constant, and that value rises from one interval to the next. So the
  // open interval of a page is the largest-valued one it has started, and
  // max_p is the largest value of any interval started at or before r:
  // record the largest value starting at each column — a time-ordered
  // sweep opens each page's interval at its previous completion — then
  // sweep r upward with a running maximum. O(cells + T) time, 12 bytes per
  // common page plus O(T).
  // opens[c]: the largest value of an interval that starts at column c.
  std::vector<SlotCount> opens(static_cast<std::size_t>(cycle),
                               std::numeric_limits<SlotCount>::min());
  const auto open_at = [&](SlotCount column, SlotCount value) {
    SlotCount& top = opens[static_cast<std::size_t>(column)];
    top = std::max(top, value);
  };
  next_program.for_each_in_time_order([&](SlotCount slot, PageId p) {
    TCSA_REQUIRE(static_cast<SlotCount>(p) < new_pages,
                 "plan_swap_seam: program references unknown page");
    if (static_cast<SlotCount>(p) >= common) return;
    SeamPage& page = seam[p];
    if (page.promised == 0) return;
    const auto done = static_cast<std::uint32_t>(slot + 1);
    if (page.last == 0) page.first = done;
    if (page.last < done)
      open_at(page.last, SlotCount{done} - SlotCount{page.promised});
    page.last = done;
  });
  bool any = false;
  for (const SeamPage& page : seam) {
    if (page.last == 0) continue;  // not common to both programs
    any = true;
    if (page.last < cycle)
      open_at(page.last, SlotCount{page.first} + cycle -
                             SlotCount{page.promised});
  }
  if (!any) return SwapPlan{0, 0};

  SwapPlan best{0, std::numeric_limits<SlotCount>::max()};
  SlotCount worst = std::numeric_limits<SlotCount>::min();
  for (SlotCount r = 0; r < cycle; ++r) {
    worst = std::max(worst, opens[static_cast<std::size_t>(r)]);
    const SlotCount lateness = worst - r;
    if (lateness < best.seam_lateness) best = SwapPlan{r, lateness};
    if (best.seam_lateness <= 0) break;  // smallest seam-clean rotation wins
  }
  return best;
}

std::string Generation::hello(net::FrameType type, std::uint32_t slot_us,
                              std::uint64_t next_slot) const {
  return net::encode(
      net::HelloMsg{.generation = id,
                    .slot_us = slot_us,
                    .channels = static_cast<std::uint32_t>(program.channels()),
                    .cycle_length =
                        static_cast<std::uint32_t>(program.cycle_length()),
                    .next_slot = next_slot,
                    .workload = workload_binary},
      type);
}

PlannedGeneration plan_generation(Workload workload, SlotCount channels,
                                  std::optional<Method> method,
                                  const Generation* on_air) {
  ScheduleOutcome outcome = [&] {
    TCSA_TRACE_SPAN("server.plan.schedule");
    return method ? make_schedule(*method, workload, channels)
                  : choose_schedule(workload, channels);
  }();
  PlannedGeneration next;
  {
    TCSA_TRACE_SPAN("server.plan.validate");
    next.report = validate_program(outcome.program, workload, 1);
  }
  SwapPlan plan;
  if (on_air != nullptr) {
    TCSA_TRACE_SPAN("server.plan.seam");
    plan = plan_swap_seam(on_air->workload, on_air->program, on_air->offset,
                          workload, outcome.program);
  }
  next.seam_lateness = plan.seam_lateness;
  std::string binary = workload_to_binary(workload);
  next.generation = std::make_shared<Generation>(
      Generation{on_air != nullptr ? on_air->id + 1 : 1, std::move(workload),
                 std::move(outcome.program), plan.offset, 0,
                 std::move(binary)});
  return next;
}

}  // namespace tcsa
