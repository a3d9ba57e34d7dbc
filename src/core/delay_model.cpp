#include "core/delay_model.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace tcsa {
namespace {

void check_frequencies(const Workload& workload,
                       std::span<const SlotCount> S, GroupId upto) {
  TCSA_REQUIRE(upto >= 0 && upto < workload.group_count(),
               "delay model: group range out of bounds");
  TCSA_REQUIRE(static_cast<GroupId>(S.size()) > upto,
               "delay model: frequency vector too short");
  for (GroupId g = 0; g <= upto; ++g)
    TCSA_REQUIRE(S[static_cast<std::size_t>(g)] >= 1,
                 "delay model: every group must be broadcast at least once");
}

}  // namespace

double even_spacing_delay(double spacing, SlotCount expected_time) {
  TCSA_REQUIRE(spacing > 0.0, "even_spacing_delay: spacing must be positive");
  const double t = static_cast<double>(expected_time);
  if (spacing <= t) return 0.0;
  const double late = spacing - t;
  return late * late / (2.0 * spacing);
}

SlotCount total_slots(const Workload& workload, std::span<const SlotCount> S) {
  check_frequencies(workload, S, workload.group_count() - 1);
  SlotCount total = 0;
  for (GroupId g = 0; g < workload.group_count(); ++g)
    total += S[static_cast<std::size_t>(g)] * workload.pages_in_group(g);
  return total;
}

SlotCount major_cycle(const Workload& workload, std::span<const SlotCount> S,
                      SlotCount channels) {
  TCSA_REQUIRE(channels >= 1, "major_cycle: need at least one channel");
  const SlotCount total = total_slots(workload, S);
  return (total + channels - 1) / channels;
}

double analytic_average_delay(const Workload& workload,
                              std::span<const SlotCount> S,
                              SlotCount channels) {
  const auto t_major =
      static_cast<double>(major_cycle(workload, S, channels));
  double sum = 0.0;
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    const double spacing =
        t_major / static_cast<double>(S[static_cast<std::size_t>(g)]);
    sum += static_cast<double>(workload.pages_in_group(g)) *
           even_spacing_delay(spacing, workload.expected_time(g));
  }
  return sum / static_cast<double>(workload.total_pages());
}

double paper_stage_delay(const Workload& workload,
                         std::span<const SlotCount> S, SlotCount channels,
                         GroupId upto) {
  TCSA_REQUIRE(channels >= 1, "paper_stage_delay: need at least one channel");
  check_frequencies(workload, S, upto);

  SlotCount slots = 0;
  for (GroupId g = 0; g <= upto; ++g)
    slots += S[static_cast<std::size_t>(g)] * workload.pages_in_group(g);
  const double f = static_cast<double>(slots);
  const auto t_major =
      static_cast<double>((slots + channels - 1) / channels);  // ceil

  double total = 0.0;
  for (GroupId g = 0; g <= upto; ++g) {
    const auto s = static_cast<double>(S[static_cast<std::size_t>(g)]);
    const auto t = static_cast<double>(workload.expected_time(g));
    // First factor from Eq. (2): ideal spacing F / (N_real * S_i) minus the
    // deadline. Non-positive means the group meets its deadline: no delay.
    const double lateness = f / (static_cast<double>(channels) * s) - t;
    if (lateness <= 0.0) continue;
    // Second factor: half the lateness measured with the *integral* cycle.
    const double half_late = (t_major / s - t) / 2.0;
    const double weight = s * static_cast<double>(workload.pages_in_group(g)) / f;
    total += weight * std::max(lateness * half_late, 0.0);
  }
  return total;
}

}  // namespace tcsa
