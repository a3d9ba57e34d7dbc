#include "oracles.hpp"

#include <algorithm>
#include <numeric>

#include "core/delay_model.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace tcsa {
namespace {

/// Groups ordered by descending frequency (Algorithm 4's sort). Stable on
/// ties so equal-frequency groups keep ascending-deadline order.
std::vector<GroupId> descending_frequency_order(const Workload& workload,
                                                std::span<const SlotCount> S) {
  std::vector<GroupId> order(static_cast<std::size_t>(workload.group_count()));
  std::iota(order.begin(), order.end(), GroupId{0});
  std::stable_sort(order.begin(), order.end(), [&](GroupId a, GroupId b) {
    return S[static_cast<std::size_t>(a)] > S[static_cast<std::size_t>(b)];
  });
  return order;
}

/// Reference column scan of the seed implementation: first empty slot at
/// column >= `from`, cyclically, channels inner. Kept verbatim as the oracle
/// the tracker is tested against.
SlotCount reference_place_from(BroadcastProgram& program, PageId page,
                               SlotCount from) {
  const SlotCount cycle = program.cycle_length();
  for (SlotCount step = 0; step < cycle; ++step) {
    const SlotCount column = (from + step) % cycle;
    for (SlotCount channel = 0; channel < program.channels(); ++channel) {
      if (program.empty_at(channel, column)) {
        program.place(channel, column, page);
        return column;
      }
    }
  }
  TCSA_ASSERT(false, "place_from: program is full (capacity bug)");
  return -1;
}

}  // namespace

PlacementResult place_even_spread_reference(const Workload& workload,
                                            std::span<const SlotCount> S,
                                            SlotCount channels) {
  TCSA_REQUIRE(channels >= 1, "place_even_spread: need at least one channel");
  const SlotCount t_major = major_cycle(workload, S, channels);
  PlacementResult result{BroadcastProgram(channels, t_major), 0};
  BroadcastProgram& program = result.program;

  for (GroupId g : descending_frequency_order(workload, S)) {
    const SlotCount s = S[static_cast<std::size_t>(g)];
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      for (SlotCount k = 1; k <= s; ++k) {
        const SlotCount lo =
            std::min((t_major * (k - 1) + s - 1) / s, t_major - 1);  // ceil
        const SlotCount hi =
            std::max(std::min((t_major * k + s - 1) / s, t_major), lo + 1);
        bool placed = false;
        for (SlotCount column = lo; column < hi && !placed; ++column) {
          for (SlotCount channel = 0; channel < channels; ++channel) {
            if (program.empty_at(channel, column)) {
              program.place(channel, column, page);
              placed = true;
              break;
            }
          }
        }
        if (!placed) {
          ++result.window_overflows;
          reference_place_from(program, page, hi % t_major);
        }
      }
    }
  }
  return result;
}

SimResult simulate_requests_reference(const AppearanceIndex& index,
                                      const Workload& workload,
                                      const std::vector<Request>& requests) {
  SimResult result;
  result.requests = requests.size();
  result.group_avg_delay.assign(
      static_cast<std::size_t>(workload.group_count()), 0.0);
  if (requests.empty()) return result;

  OnlineStats waits;
  SampleSet delays;
  delays.reserve(requests.size());
  std::vector<OnlineStats> group_delays(
      static_cast<std::size_t>(workload.group_count()));
  std::size_t misses = 0;

  for (const Request& request : requests) {
    const double wait = index.wait_after(request.page, request.arrival);
    const GroupId g = workload.group_of(request.page);
    const auto deadline = static_cast<double>(workload.expected_time(g));
    const double delay = std::max(0.0, wait - deadline);
    waits.add(wait);
    delays.add(delay);
    group_delays[static_cast<std::size_t>(g)].add(delay);
    if (wait > deadline) ++misses;
  }

  result.avg_wait = waits.mean();
  result.avg_delay = delays.mean();
  result.miss_rate =
      static_cast<double>(misses) / static_cast<double>(requests.size());
  result.p50_delay = delays.quantile(0.50);
  result.p95_delay = delays.quantile(0.95);
  result.p99_delay = delays.quantile(0.99);
  result.max_delay = delays.max();
  for (std::size_t g = 0; g < group_delays.size(); ++g)
    result.group_avg_delay[g] = group_delays[g].mean();
  return result;
}

}  // namespace tcsa
