// quickstart — the library in one page.
//
// Build a workload, compute the Theorem 3.1 channel bound, schedule with
// SUSC when channels suffice and PAMAD when they do not, validate, and
// measure average delay with the simulator. Start here. Exits 1 if the SUSC
// program fails validation (CTest runs it as Examples.Quickstart).
#include <iostream>

#include "core/channel_bound.hpp"
#include "core/pamad.hpp"
#include "core/susc.hpp"
#include "model/validate.hpp"
#include "sim/broadcast_sim.hpp"

using namespace tcsa;

int main() {
  // 1. Describe the broadcast workload: three deadline groups. Pages of the
  //    first group must reach any client within 2 slots, the second within
  //    4, the third within 8 (Section 2's geometric deadline ladder).
  const Workload workload = make_workload({2, 4, 8}, {3, 5, 3});
  std::cout << "workload: " << workload.describe() << '\n';

  // 2. How many broadcast channels does a zero-delay program need?
  const SlotCount bound = min_channels(workload);
  std::cout << "Theorem 3.1 minimum channels: " << bound << "\n\n";

  // 3a. Sufficient channels: SUSC builds a *valid* program — every client
  //     receives every page within its expected time, whenever it tunes in.
  const BroadcastProgram valid_program = schedule_susc(workload, bound);
  std::cout << "SUSC program on " << bound << " channels (cycle "
            << valid_program.cycle_length() << " slots):\n"
            << valid_program.render();
  const ValidityReport report = validate_program(valid_program, workload);
  std::cout << "valid: " << (report.valid ? "yes" : "no")
            << ", worst client wait: " << report.worst_wait << " slots\n\n";

  // 3b. Insufficient channels: PAMAD trades bounded delay for fitting in.
  const SlotCount available = bound - 1;
  const PamadSchedule pamad = schedule_pamad(workload, available);
  std::cout << "PAMAD program on " << available << " channels (cycle "
            << pamad.frequencies.t_major << " slots, frequencies";
  for (const SlotCount s : pamad.frequencies.S) std::cout << ' ' << s;
  std::cout << "):\n" << pamad.program.render();

  // 4. Measure the paper's AvgD metric over 3000 simulated requests.
  SimConfig sim;
  const SimResult measured = simulate_requests(pamad.program, workload, sim);
  std::cout << "AvgD = " << measured.avg_delay << " slots (predicted "
            << pamad.frequencies.predicted_delay << "), deadline miss rate = "
            << measured.miss_rate << '\n';
  return report.valid ? 0 : 1;
}
