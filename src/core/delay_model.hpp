// delay_model.hpp — the average-delay model of Section 4.1–4.3.
//
// When a page is rebroadcast with even spacing g but its deadline is t < g, a
// client tuning in uniformly at random is late with probability (g - t) / g
// and, when late, waits (g - t) / 2 beyond the deadline on average, so its
// expected delay is (g - t)^2 / (2 g).
//
// Two objectives are provided:
//
//  * analytic_average_delay — the true per-request expectation under uniform
//    page access (prob 1/n each, Section 4.1). This is what the evaluation
//    metric AvgD estimates by simulation.
//  * paper_stage_delay — the paper's Equation (2)/(3)/(5)/(7) form, which
//    weights groups by their share of broadcast slots (S_i P_i / F) and drops
//    the 1/g factor. It differs from the true expectation exactly by the
//    constant factor n / N_real, hence has the same minimiser; PAMAD's stage
//    search uses it verbatim so the algorithm is faithful to the paper.
//
// Frequencies are passed as a vector S with S[g] = broadcast count of every
// page of group g within one major cycle of ceil(sum_g S_g P_g / channels)
// slots.
#pragma once

#include <span>

#include "model/workload.hpp"

namespace tcsa {

/// Expected delay beyond deadline `expected_time` for even spacing `spacing`:
/// 0 when spacing <= expected_time, else (spacing - t)^2 / (2 * spacing).
double even_spacing_delay(double spacing, SlotCount expected_time);

/// Total broadcast slots one cycle needs: sum_g S[g] * P_g.
/// Precondition: S.size() == group count, every S[g] >= 1.
SlotCount total_slots(const Workload& workload, std::span<const SlotCount> S);

/// Major cycle length t_major = ceil(total_slots / channels) (Equation 8).
SlotCount major_cycle(const Workload& workload, std::span<const SlotCount> S,
                      SlotCount channels);

/// True expected delay per request under uniform page access:
/// (1/n) * sum_g P_g * even_spacing_delay(t_major / S_g, t_g).
double analytic_average_delay(const Workload& workload,
                              std::span<const SlotCount> S,
                              SlotCount channels);

/// The paper's stage objective D'_{upto+1} over groups [0, upto] (0-based,
/// inclusive): Equation (7) with F = sum_{j<=upto} S_j P_j and
/// t_major = ceil(F / channels). S entries beyond `upto` are ignored.
double paper_stage_delay(const Workload& workload,
                         std::span<const SlotCount> S, SlotCount channels,
                         GroupId upto);

}  // namespace tcsa
