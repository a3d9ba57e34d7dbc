// oracles.hpp — the naive reference implementations the optimised
// SUSC, validation, seam-planning, placement and simulator paths are checked
// against, bit for bit. Test and benchmark code only: none of this ships in
// the library.
#pragma once

#include <span>
#include <vector>

#include "core/placement.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "server/air_server.hpp"
#include "sim/broadcast_sim.hpp"

namespace tcsa {

/// The paper's SUSC with Algorithm 2 as written: every page rescans from
/// channel 0, column 0. schedule_susc must produce a cell-for-cell identical
/// program. O(n * N * t) worst case.
BroadcastProgram schedule_susc_reference(const Workload& workload,
                                         SlotCount channels);

/// The index-based validator: one AppearanceIndex over the program, then
/// each page's sorted completion times in turn. validate_program must
/// return an equal report, field for field (text and order included).
ValidityReport validate_program_reference(const BroadcastProgram& program,
                                          const Workload& workload);

/// The rotation scan: every rotation r of the next program in turn, one
/// AppearanceIndex::wait_after binary search per common page. plan_swap_seam
/// must return the same offset and seam_lateness. O(T * pages * log).
SwapPlan plan_swap_seam_reference(const Workload& current_workload,
                                  const BroadcastProgram& current_program,
                                  SlotCount current_offset,
                                  const Workload& next_workload,
                                  const BroadcastProgram& next_program);

/// The seed's naive double-scan placer: place_even_spread must produce a
/// bit-identical program. O(copies * t_major * channels) worst case.
PlacementResult place_even_spread_reference(const Workload& workload,
                                            std::span<const SlotCount> S,
                                            SlotCount channels);

/// The scalar simulator: one AppearanceIndex::wait_after binary search per
/// request, in request order. Semantically the definition of the
/// simulator; the batched simulate_requests must match it bit for bit, and
/// bench_micro_sim uses it as the baseline.
SimResult simulate_requests_reference(const AppearanceIndex& index,
                                      const Workload& workload,
                                      const std::vector<Request>& requests);

}  // namespace tcsa
