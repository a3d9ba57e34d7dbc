#include "model/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {
namespace {

/// One page's completions so far in the time-ordered sweep, each a
/// completion time in (0, T]; last == 0 means the page has not aired yet.
struct PageSweep {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint32_t widest = 0;  ///< widest gap between consecutive completions
};

}  // namespace

ValidityReport validate_program(const BroadcastProgram& program,
                                const Workload& workload,
                                std::size_t max_messages) {
  ValidityReport report;
  // Formats a message only while its list has room: a caller that reads
  // the verdict alone skips building one string per failing page.
  const auto note = [max_messages](std::vector<std::string>& list,
                                   const auto&... parts) {
    if (list.size() >= max_messages) return;
    list.push_back(str_cat(parts...));
  };
  const SlotCount cycle = program.cycle_length();
  TCSA_REQUIRE(cycle < std::numeric_limits<std::uint32_t>::max(),
               "validate_program: cycle too long for 32-bit completion times");
  const SlotCount page_count = workload.total_pages();

  // One sweep in time order: a page's gaps are the differences of its
  // consecutive completions, so first, last and widest gap are all the
  // state condition (1) and (2) need. O(cells) time, 12 bytes per page.
  std::vector<PageSweep> sweep(static_cast<std::size_t>(page_count));
  // Duplicate columns are rare waste; the sweep finds them in column order.
  std::vector<std::pair<PageId, std::uint32_t>> duplicates;
  program.for_each_in_time_order([&](SlotCount slot, PageId page) {
    TCSA_REQUIRE(static_cast<SlotCount>(page) < page_count,
                 "validate_program: program references unknown page");
    PageSweep& seen = sweep[page];
    const auto done = static_cast<std::uint32_t>(slot + 1);
    if (seen.last == 0) {
      seen.first = done;
    } else {
      if (done == seen.last) duplicates.emplace_back(page, done - 1);
      seen.widest = std::max(seen.widest, done - seen.last);
    }
    seen.last = done;
  });

  // Waste diagnostic: duplicate appearance in the same column, by page.
  std::stable_sort(duplicates.begin(), duplicates.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [page, column] : duplicates) {
    note(report.warnings, "page ", page, " appears twice in column ", column);
  }

  for (PageId page = 0; page < page_count; ++page) {
    const SlotCount t = workload.expected_time_of(page);
    const PageSweep& seen = sweep[page];

    if (seen.last == 0) {
      report.valid = false;
      note(report.violations, "page ", page, " never appears in the program");
      continue;
    }

    // Condition (1): first completion within t slots of the cycle start.
    if (seen.first > t) {
      report.valid = false;
      note(report.violations, "page ", page, " first completes at ",
           seen.first, " > expected time ", t);
    }

    // Condition (2): all gaps, including wrap-around, within t.
    const SlotCount gap =
        std::max<SlotCount>(seen.widest, seen.first + cycle - seen.last);
    report.worst_wait = std::max(report.worst_wait, gap);
    report.worst_lateness = std::max(report.worst_lateness, gap - t);
    if (gap > t) {
      report.valid = false;
      note(report.violations, "page ", page, " has an appearance gap of ", gap,
           " > expected time ", t);
    }
  }
  return report;
}

bool is_valid_program(const BroadcastProgram& program,
                      const Workload& workload) {
  return validate_program(program, workload, 0).valid;
}

}  // namespace tcsa
