#include "model/inspect.hpp"

#include <algorithm>

#include "model/appearance_index.hpp"
#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {

ProgramReport inspect_program(const BroadcastProgram& program,
                              const Workload& workload) {
  ProgramReport report;
  report.channels = program.channels();
  report.cycle_length = program.cycle_length();
  report.occupied = program.occupied();
  report.fill_ratio = static_cast<double>(program.occupied()) /
                      static_cast<double>(program.capacity());

  const AppearanceIndex index(program, workload.total_pages());
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    GroupSpacingStats stats;
    stats.group = g;
    stats.expected_time = workload.expected_time(g);

    SlotCount group_slots = 0;
    double gap_sum = 0.0;
    SlotCount gap_count = 0;
    for (SlotCount j = 0; j < workload.pages_in_group(g); ++j) {
      const PageId page = workload.first_page(g) + static_cast<PageId>(j);
      const auto times = index.appearances(page);
      if (times.empty()) {
        ++report.pages_missing;
        continue;
      }
      group_slots += static_cast<SlotCount>(times.size());
      stats.copies_per_page = static_cast<SlotCount>(times.size());
      stats.worst_gap = std::max(stats.worst_gap, index.max_gap(page));
      // All gaps including the wrap: they sum to exactly one cycle.
      gap_sum += static_cast<double>(program.cycle_length());
      gap_count += static_cast<SlotCount>(times.size());
    }
    stats.mean_gap =
        gap_count > 0 ? gap_sum / static_cast<double>(gap_count) : 0.0;
    stats.ideal_spacing =
        stats.copies_per_page > 0
            ? static_cast<double>(program.cycle_length()) /
                  static_cast<double>(stats.copies_per_page)
            : 0.0;
    stats.share_of_slots =
        program.occupied() > 0
            ? static_cast<double>(group_slots) /
                  static_cast<double>(program.occupied())
            : 0.0;
    report.groups.push_back(stats);
  }
  return report;
}

std::string report_to_string(const ProgramReport& report) {
  std::string text = str_cat(
      "program: ", report.channels, " channels x ", report.cycle_length,
      " slots, ", report.occupied, '/', report.channels * report.cycle_length,
      " occupied (", fixed(100.0 * report.fill_ratio, 2), "%)\n");
  if (report.pages_missing > 0)
    str_append(text, "WARNING: ", report.pages_missing,
               " pages never appear in the program\n");
  text += "group  t_i  copies  ideal-gap  mean-gap  worst-gap  slot-share\n";
  for (const GroupSpacingStats& g : report.groups) {
    str_append(text, pad(5, g.group + 1), "  ", pad(3, g.expected_time), "  ",
               pad(6, g.copies_per_page), "  ", pad(9, fixed(g.ideal_spacing, 2)),
               "  ", pad(8, fixed(g.mean_gap, 2)), "  ", pad(9, g.worst_gap),
               "  ", pad(9, fixed(100.0 * g.share_of_slots, 2)), "%\n");
  }
  return text;
}

std::string occupancy_strip(const BroadcastProgram& program,
                            std::size_t width) {
  TCSA_REQUIRE(width >= 1, "occupancy_strip: width must be >= 1");
  const auto cycle = static_cast<std::size_t>(program.cycle_length());
  width = std::min(width, cycle);
  std::string strip(width, '0');
  for (std::size_t bucket = 0; bucket < width; ++bucket) {
    const auto begin = static_cast<SlotCount>(bucket * cycle / width);
    const auto end = static_cast<SlotCount>((bucket + 1) * cycle / width);
    SlotCount used = 0;
    for (SlotCount column = begin; column < end; ++column)
      used += program.column_load(column);
    const SlotCount capacity =
        std::max<SlotCount>(1, (end - begin) * program.channels());
    const auto level = static_cast<int>(
        9.0 * static_cast<double>(used) / static_cast<double>(capacity));
    strip[bucket] = static_cast<char>('0' + std::clamp(level, 0, 9));
  }
  return strip;
}

}  // namespace tcsa
