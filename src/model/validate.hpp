// validate.hpp — broadcast-program validity checking (Section 3.1).
//
// A program is *valid* for a workload when, for every page p of group G_i:
//   (1) p completes at least once within the first t_i slots (so a client
//       tuning in at the very start still meets the deadline), and
//   (2) consecutive completions of p — including the wrap from the last
//       appearance of one cycle to the first of the next — are at most t_i
//       apart.
// Those two conditions are exactly "every client receives p within t_i, no
// matter when it starts listening".
//
// The checker also reports structural diagnostics that are not validity
// violations but indicate scheduler waste (a page appearing twice in the
// same column).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "model/program.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Outcome of validating one program against one workload.
struct ValidityReport {
  bool valid = true;                  ///< conditions (1) and (2) hold for all pages
  std::vector<std::string> violations;///< human-readable failures
  std::vector<std::string> warnings;  ///< waste diagnostics (non-fatal)

  /// Worst client wait over all pages and start times, in slots.
  SlotCount worst_wait = 0;
  /// Worst (wait - t_i) over all pages; <= 0 for a valid program.
  SlotCount worst_lateness = 0;
};

/// Validates `program` against `workload`. Every page of the workload must
/// appear at least once; missing pages are violations. One time-ordered
/// sweep of the grid with 32-bit per-page state: O(cells) time and
/// O(pages + channels) memory, no AppearanceIndex. Throws
/// std::invalid_argument when the program names a page >= n.
///
/// `max_messages` caps each of `violations` and `warnings`; the verdict
/// and the worst wait/lateness do not depend on it, and the messages kept
/// are the first ones of the full report. A caller that reads only the
/// verdict and the first violation (the server's start-up and swap
/// worker) passes 1 and skips formatting one string per failing page.
ValidityReport validate_program(
    const BroadcastProgram& program, const Workload& workload,
    std::size_t max_messages = std::numeric_limits<std::size_t>::max());

/// Convenience: true iff validate_program(...).valid.
bool is_valid_program(const BroadcastProgram& program,
                      const Workload& workload);

}  // namespace tcsa
