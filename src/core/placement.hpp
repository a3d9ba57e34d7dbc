// placement.hpp — Algorithm 4's even-spread slot placement.
//
// Given per-group broadcast frequencies S, the placer builds a program with
// major cycle t_major = ceil(sum S_i P_i / channels) and spreads the k-th
// copy of each page inside its ideal column window
//
//     [ ceil(t_major * (k-1) / S_i),  ceil(t_major * k / S_i) )     (0-based)
//
// scanning columns left to right and, within a column, channels top to
// bottom. Pages are processed in descending-frequency order so the pages
// with the most copies (and the narrowest windows) claim slots first.
//
// The paper asserts a free slot always exists inside the window; that holds
// in practice but not for adversarial inputs, so when a window is exhausted
// this placer keeps scanning forward cyclically (capacity N * t_major >=
// sum S_i P_i guarantees success) and counts the event in
// `window_overflows`. Benches report the counter; tests assert it stays 0 on
// paper-scale workloads.
#pragma once

#include <span>

#include "model/program.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Placement outcome: the program plus placement diagnostics.
struct PlacementResult {
  BroadcastProgram program;
  SlotCount window_overflows = 0;  ///< copies placed outside their window
};

/// Runs Algorithm 4 for the given frequencies.
/// Preconditions: channels >= 1; S has one entry >= 1 per group.
/// Placement cost is amortised near-O(1) per copy: per-column occupancy
/// counts plus a pointer-jumping "next non-full column" structure replace
/// the naive window/channel scans while choosing the identical slots.
PlacementResult place_even_spread(const Workload& workload,
                                  std::span<const SlotCount> S,
                                  SlotCount channels);

/// Ablation variant (experiment A2): ignores the even-spread windows and
/// fills slots first-fit in page order. Same cycle length and copy counts,
/// typically much worse spacing — quantifies how much Algorithm 4's
/// spreading matters.
PlacementResult place_first_fit(const Workload& workload,
                                std::span<const SlotCount> S,
                                SlotCount channels);

}  // namespace tcsa
