// pamad.hpp — Progressively Approaching Minimum Average Delay (Section 4).
//
// When channels fall below Theorem 3.1's bound, PAMAD chooses per-group
// broadcast frequencies S_1 >= S_2 >= ... >= S_h = 1 and evenly spreads the
// copies, trading bounded extra delay for fitting into the available
// bandwidth. The frequency search (Algorithm 3) is progressive:
//
//   stage 1:  within t_1, broadcasting G_1 once suffices (r implicit).
//   stage i:  groups 1..i-1 keep the ratios found so far; the new knob is
//             r_{i-1}, how many times the stage-(i-1) sub-program repeats
//             inside the t_i window while G_i is broadcast once. r_{i-1} is
//             swept from 1 to ceil((channels * t_i - P_i) / F_{i-1}) and the
//             value minimising the paper's stage objective D'_i (Equation 7)
//             wins; ties keep the smallest r (same delay, less bandwidth).
//   final:    S_i = prod_{j=i}^{h-1} r_j, S_h = 1.
//
// The resulting frequencies go through the Algorithm 4 even-spread placer.
#pragma once

#include <vector>

#include "core/placement.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Frequency-search outcome (Algorithm 3).
struct PamadFrequencies {
  std::vector<SlotCount> S;  ///< per-group copies per major cycle, S[h-1] == 1
  std::vector<SlotCount> r;  ///< stage ratios, size h-1 (empty when h == 1)
  std::vector<double> stage_delay;  ///< D'_i at each stage's chosen r
  SlotCount t_major = 0;            ///< Equation (8) cycle length
  double predicted_delay = 0.0;     ///< analytic_average_delay at S
};

/// Runs Algorithm 3. Valid for any channel count >= 1; at or above the
/// Theorem 3.1 bound the search naturally returns the zero-delay frequencies.
PamadFrequencies pamad_frequencies(const Workload& workload,
                                   SlotCount channels);

/// Ablation hook (experiment A1): the stage objective PAMAD minimises.
enum class PamadObjective {
  kPaper,  ///< Equation (7) exactly as published
  kExact,  ///< true expected delay (analytic_average_delay over the prefix)
};

/// Algorithm 3 with a selectable stage objective.
PamadFrequencies pamad_frequencies(const Workload& workload,
                                   SlotCount channels,
                                   PamadObjective objective);

/// Complete PAMAD schedule: frequencies + Algorithm 4 placement.
struct PamadSchedule {
  PamadFrequencies frequencies;
  BroadcastProgram program;
  SlotCount window_overflows = 0;
};

/// Builds the full PAMAD broadcast program.
PamadSchedule schedule_pamad(const Workload& workload, SlotCount channels,
                             PamadObjective objective = PamadObjective::kPaper);

}  // namespace tcsa
