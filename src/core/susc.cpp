#include "core/susc.hpp"

#include <vector>

#include "core/channel_bound.hpp"
#include "util/contracts.hpp"

namespace tcsa {

BroadcastProgram schedule_susc(const Workload& workload, SlotCount channels) {
  TCSA_REQUIRE(channels >= min_channels(workload),
               "schedule_susc: channels below the Theorem 3.1 minimum — "
               "use PAMAD for the insufficient-channel case");
  const SlotCount cycle = workload.max_expected_time();
  BroadcastProgram program(channels, cycle);

  // Algorithm 2 (GetAvailableSlot) without the rescan: first_free[c] is
  // channel c's first empty column, and the slot Algorithm 2 returns is
  // (lo, first_free[lo]) for the first channel lo with first_free[lo] < t.
  // Both only move forward within a group (see the header).
  std::vector<SlotCount> first_free(static_cast<std::size_t>(channels), 0);

  // Groups are stored in ascending expected-time order already (Workload
  // invariant), which is exactly Algorithm 1's sort.
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    const SlotCount t = workload.expected_time(g);
    const SlotCount replications = cycle / t;  // ceil(t_h / t_i) == exact
    SlotCount lo = 0;  // each group restarts the channel scan
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      while (lo < channels && first_free[static_cast<std::size_t>(lo)] >= t)
        ++lo;
      TCSA_ASSERT(lo < channels,
                  "schedule_susc: no slot in the first t_i columns — "
                  "Theorem 3.2 violated (bug)");
      const SlotCount x = lo;
      SlotCount& cursor = first_free[static_cast<std::size_t>(x)];
      const SlotCount y = cursor;
      // Theorem 3.3: the arithmetic progression (x, y + k*t) is free; place()
      // asserts emptiness, so a violation surfaces immediately.
      for (SlotCount k = 0; k < replications; ++k)
        program.place(x, y + k * t, page);
      while (cursor < cycle && !program.empty_at(x, cursor)) ++cursor;
    }
  }
  return program;
}

BroadcastProgram schedule_susc(const Workload& workload) {
  return schedule_susc(workload, min_channels(workload));
}

}  // namespace tcsa
