// trace.hpp — building workloads from raw deadline traces.
//
// Deployments rarely start from neat group counts: they start from a trace
// of items and announced freshness requirements (one line per page). This
// module parses that CSV-ish format, runs the Section-2 rearrangement with
// an auto-selected ladder ratio, and hands back everything needed to
// schedule — the entry point `tcsactl --cmd plan` uses.
//
// Format (whitespace/comma separated, '#' comments, blank lines ignored):
//   <page-name> <expected-time-slots>
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "model/workload.hpp"
#include "workload/rearrange.hpp"

namespace tcsa {

/// One trace line.
struct TraceEntry {
  std::string name;          ///< free-form page identifier
  SlotCount expected_time = 0;
};

/// Parses the trace format; throws std::invalid_argument with a line
/// number on malformed input. Order is preserved.
std::vector<TraceEntry> parse_trace(std::string_view text);

/// Planning outcome: the ladder workload plus the name mapping.
struct TracePlan {
  RearrangedWorkload rearranged;      ///< workload + assignment details
  std::vector<std::string> name_of_page;  ///< page id -> trace name
  SlotCount ladder_ratio = 2;         ///< the auto-selected c
};

/// Full pipeline: trace -> best ladder ratio -> rearranged workload.
/// `max_ratio` bounds the ratio search (see best_ladder_ratio).
TracePlan plan_from_trace(const std::vector<TraceEntry>& entries,
                          SlotCount max_ratio = 8);

}  // namespace tcsa
