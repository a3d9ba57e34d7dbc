// generation.hpp — what goes on air, and the one function that plans it.
//
// A Generation is one program on air between two swaps. plan_generation
// builds the next one from a workload: schedule it (choose_schedule, or the
// requested method), validate the program, and — when a generation is
// already on air — pick the airing rotation that best keeps the deadline
// promises the old program left outstanding at the seam (plan_swap_seam).
// Start-up, the hot-swap worker and the swap benchmark all call it, so a
// change to how a swap is planned changes this one function. Whether an
// invalid program may air is the caller's rule, not this module's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/api.hpp"
#include "model/program.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "net/framing.hpp"

namespace tcsa {

/// One program generation: what is on air between two swaps. Immutable
/// once on air, so loop 0, the swap worker and every shard share it.
struct Generation {
  std::uint32_t id = 0;
  Workload workload;
  BroadcastProgram program;
  SlotCount offset = 0;          // airing rotation (column of slot 0)
  std::uint64_t start_slot = 0;  // global slot of its first aired column
  std::string workload_binary;   // cached for hello/announce payloads

  /// The program column global `slot` airs (slot >= start_slot).
  SlotCount column(std::uint64_t slot) const {
    return (offset + static_cast<SlotCount>(slot - start_slot)) %
           program.cycle_length();
  }
  /// This generation's kHello or kAnnounce (`type`) naming `next_slot`.
  std::string hello(net::FrameType type, std::uint32_t slot_us,
                    std::uint64_t next_slot) const;
};

/// Outcome of seam planning for a major-cycle-boundary swap: air the new
/// program rotated by `offset` columns; `seam_lateness` is the worst
/// remaining slack violation in slots (<= 0 means every outstanding
/// deadline promise for pages common to both workloads is preserved).
struct SwapPlan {
  SlotCount offset = 0;
  SlotCount seam_lateness = 0;
};

/// Picks the airing rotation of `next_program` minimizing the swap seam:
/// for every page p common to both workloads, the promise outstanding at
/// the boundary is "p completes within first_old(p) slots" (what the old
/// program would have delivered had it kept cycling); the plan minimizes
/// max_p(first_new(p) - first_old(p)). `current_offset` is the rotation the
/// old program airs under. Rotation preserves validity condition (2) — the
/// appearance gaps of a cyclic program are rotation-invariant. Returns the
/// first seam-clean rotation, or failing that the first that minimizes the
/// lateness. One pass over the old program, one time-ordered sweep of the
/// new one and one sweep over the rotations: O(cells + T) time, 12 bytes
/// per common page plus O(T_new + channels), no AppearanceIndex. Throws
/// std::invalid_argument when either program names a page outside its
/// workload.
SwapPlan plan_swap_seam(const Workload& current_workload,
                        const BroadcastProgram& current_program,
                        SlotCount current_offset,
                        const Workload& next_workload,
                        const BroadcastProgram& next_program);

/// The next generation and the verdicts its caller decides by.
struct PlannedGeneration {
  /// Not yet on air: start_slot is set when it activates.
  std::shared_ptr<Generation> generation;
  /// validate_program's report, keeping one message (the first violation).
  ValidityReport report;
  /// plan_swap_seam's lateness at the chosen offset; 0 with nothing on air.
  SlotCount seam_lateness = 0;
};

/// Builds the generation that follows `on_air` (null at start-up): the
/// workload (moved in, never copied) scheduled on `channels` by `method`
/// (unset = choose_schedule), validated, and — after `on_air` — rotated by
/// plan_swap_seam against it, valid or not. Its id is on_air's + 1 (1 at
/// start-up) and its offset 0 at start-up. Traced as the child spans
/// server.plan.{schedule,validate,seam} of the caller's span. Throws what
/// the scheduler or the seam planner throws.
PlannedGeneration plan_generation(Workload workload, SlotCount channels,
                                  std::optional<Method> method,
                                  const Generation* on_air);

}  // namespace tcsa
