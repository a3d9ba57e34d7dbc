// susc.hpp — Scheduling Under Sufficient Channels (Section 3.2).
//
// Greedy construction of a *valid* broadcast program when the channel count
// meets Theorem 3.1's bound:
//
//   1. Take pages in ascending expected-time order (tight deadlines claim the
//      scarce early columns first — Condition (1) of validity).
//   2. For each page, GetAvailableSlot finds the first empty slot, channel by
//      channel, within the page's first t_i columns. Theorem 3.2 guarantees
//      one exists whenever channels >= the minimum. Slots are only ever
//      filled, so each channel keeps a cursor at its first empty column that
//      only moves forward. Within a group t_i is fixed, so a channel whose
//      cursor reached t_i stays closed, and a pointer to the first open
//      channel only moves forward; it resets when the next group starts.
//      The scan the paper describes costs O(n * N * t); with the cursors and
//      the pointer SUSC costs O(n + h * N + N * t_h) and places every page
//      in the same slot.
//   3. From that slot (x, y), replicate the page every t_i columns to the end
//      of the cycle t_h (Condition (2)); Theorem 3.3 guarantees all those
//      slots are still empty, which this implementation asserts.
//
// The produced cycle has length t_h and, run at exactly the minimum channel
// count, packs N * t_h slots with at most one idle stretch — the optimality
// claimed in Section 5 ("nothing needs to be evaluated for this case").
#pragma once

#include "model/program.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Builds a valid broadcast program on `channels` channels.
/// Preconditions: channels >= min_channels(workload) (throws
/// std::invalid_argument otherwise — use PAMAD below the bound).
BroadcastProgram schedule_susc(const Workload& workload, SlotCount channels);

/// Convenience: SUSC at exactly the Theorem 3.1 minimum.
BroadcastProgram schedule_susc(const Workload& workload);

}  // namespace tcsa
