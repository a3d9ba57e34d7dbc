#include "core/pamad.hpp"

#include <algorithm>
#include <limits>

#include "core/delay_model.hpp"
#include "util/contracts.hpp"

namespace tcsa {
namespace {

/// Exact stage objective: true expected delay under uniform page access,
/// restricted to the prefix groups [0, upto]. Mirrors paper_stage_delay's
/// scope.
double exact_stage_delay(const Workload& workload,
                         std::span<const SlotCount> S, SlotCount channels,
                         GroupId upto) {
  SlotCount slots = 0;
  for (GroupId g = 0; g <= upto; ++g)
    slots += S[static_cast<std::size_t>(g)] * workload.pages_in_group(g);
  const auto t_major = static_cast<double>((slots + channels - 1) / channels);
  double sum = 0.0;
  double pages = 0.0;
  for (GroupId g = 0; g <= upto; ++g) {
    const auto group_pages = static_cast<double>(workload.pages_in_group(g));
    const double spacing =
        t_major / static_cast<double>(S[static_cast<std::size_t>(g)]);
    sum += group_pages * even_spacing_delay(spacing, workload.expected_time(g));
    pages += group_pages;
  }
  return pages > 0.0 ? sum / pages : 0.0;
}

/// Fills S[0..upto] from the ratio vector: S_j = prod_{l=j}^{upto-1} r_l with
/// S_upto = 1 (Section 4.3's relationship between r and S).
void ratios_to_frequencies(std::span<const SlotCount> r, GroupId upto,
                           std::vector<SlotCount>& S) {
  S[static_cast<std::size_t>(upto)] = 1;
  for (GroupId j = upto - 1; j >= 0; --j) {
    S[static_cast<std::size_t>(j)] =
        S[static_cast<std::size_t>(j) + 1] * r[static_cast<std::size_t>(j)];
  }
}

/// The progressive stage search (Algorithm 3), parameterised on the stage
/// objective: objective(S, stage) evaluates the prefix [0, stage].
template <typename Objective>
PamadFrequencies search_frequencies(const Workload& workload,
                                    SlotCount channels,
                                    Objective&& objective) {
  TCSA_REQUIRE(channels >= 1, "pamad_frequencies: need at least one channel");
  const GroupId h = workload.group_count();

  PamadFrequencies result;
  result.S.assign(static_cast<std::size_t>(h), 1);
  if (h == 1) {
    // Stage 1 is trivial: broadcasting G_1 once per cycle is the only choice
    // consistent with the lower-bound restriction.
    result.t_major = major_cycle(workload, result.S, channels);
    return result;
  }

  result.r.assign(static_cast<std::size_t>(h) - 1, 1);
  std::vector<SlotCount> S(static_cast<std::size_t>(h), 1);

  for (GroupId stage = 1; stage < h; ++stage) {
    // Size of the stage-(stage-1) sub-program F_{i-1}: groups [0, stage-1]
    // with the ratios fixed so far and the newest group broadcast once.
    ratios_to_frequencies(result.r, stage - 1, S);
    SlotCount f_prev = 0;
    for (GroupId j = 0; j < stage; ++j)
      f_prev += S[static_cast<std::size_t>(j)] * workload.pages_in_group(j);

    // Sweep bound from Algorithm 3: repetitions of the sub-program that fit
    // in the t_i window next to one copy of G_i. At least 1 (lower-bound
    // restriction: every page is broadcast).
    const SlotCount budget =
        channels * workload.expected_time(stage) -
        workload.pages_in_group(stage);
    const SlotCount cap = budget <= 0 ? 1 : (budget + f_prev - 1) / f_prev;

    // Several ratios can tie at the minimum (typically all at zero stage
    // delay when bandwidth is ample, an artefact of ceil()). The stage
    // objective cannot discriminate between them, but later stages can be
    // starved by a lopsided choice, so ties prefer the ratio closest to the
    // deadline ladder step t_i / t_{i-1} — the bandwidth-balanced ratio SUSC
    // uses, which keeps t_j * S_j even across groups (documented deviation;
    // the paper's worked example has a unique minimiser either way).
    const SlotCount ladder_step =
        workload.expected_time(stage) / workload.expected_time(stage - 1);
    auto tie_distance = [ladder_step](SlotCount rho) {
      return rho >= ladder_step ? rho - ladder_step : ladder_step - rho;
    };
    SlotCount best_ratio = 1;
    double best_delay = std::numeric_limits<double>::infinity();
    for (SlotCount rho = 1; rho <= cap; ++rho) {
      result.r[static_cast<std::size_t>(stage) - 1] = rho;
      ratios_to_frequencies(result.r, stage, S);
      const double d = objective(std::span<const SlotCount>(S), stage);
      if (d < best_delay ||
          (d == best_delay && tie_distance(rho) < tie_distance(best_ratio))) {
        best_delay = d;
        best_ratio = rho;
      }
      if (d == 0.0 && rho >= ladder_step) break;  // no better tie possible
    }
    result.r[static_cast<std::size_t>(stage) - 1] = best_ratio;
    result.stage_delay.push_back(best_delay);
  }

  ratios_to_frequencies(result.r, h - 1, result.S);
  result.t_major = major_cycle(workload, result.S, channels);
  return result;
}

}  // namespace

PamadFrequencies pamad_frequencies(const Workload& workload,
                                   SlotCount channels) {
  return pamad_frequencies(workload, channels, PamadObjective::kPaper);
}

PamadFrequencies pamad_frequencies(const Workload& workload,
                                   SlotCount channels,
                                   PamadObjective objective) {
  PamadFrequencies result = search_frequencies(
      workload, channels,
      [&](std::span<const SlotCount> S, GroupId stage) {
        return objective == PamadObjective::kPaper
                   ? paper_stage_delay(workload, S, channels, stage)
                   : exact_stage_delay(workload, S, channels, stage);
      });
  result.predicted_delay =
      analytic_average_delay(workload, result.S, channels);
  return result;
}

PamadSchedule schedule_pamad(const Workload& workload, SlotCount channels,
                             PamadObjective objective) {
  PamadFrequencies freq = pamad_frequencies(workload, channels, objective);
  PlacementResult placed = place_even_spread(workload, freq.S, channels);
  return PamadSchedule{std::move(freq), std::move(placed.program),
                       placed.window_overflows};
}

}  // namespace tcsa
