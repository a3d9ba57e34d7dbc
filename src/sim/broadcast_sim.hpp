// broadcast_sim.hpp — the access simulator behind the paper's AvgD metric.
//
// Section 5: "Average delay is the time that on average a client has to wait
// in addition to the expected time for the desired data to come." We draw
// client requests (page + arrival time), look up the next completion of that
// page in the broadcast program, and record wait and delay. Waits assume the
// client can tune to any channel and knows the schedule (standard indexed
// multi-channel broadcast assumption, also implicit in the paper's model).
#pragma once

#include <vector>

#include "model/appearance_index.hpp"
#include "model/program.hpp"
#include "model/workload.hpp"
#include "workload/requests.hpp"

namespace tcsa {

/// Aggregate results over one simulated request stream.
struct SimResult {
  std::size_t requests = 0;
  double avg_wait = 0.0;        ///< mean wait (slots)
  double avg_delay = 0.0;       ///< AvgD: mean max(0, wait - t_i)
  double miss_rate = 0.0;       ///< fraction of requests with wait > t_i
  double p50_delay = 0.0;
  double p95_delay = 0.0;
  double p99_delay = 0.0;
  double max_delay = 0.0;
  std::vector<double> group_avg_delay;  ///< per-group mean delay
};

/// Simulation recipe: request stream shape plus seed.
struct SimConfig {
  RequestConfig requests;        ///< defaults: 3000 uniform requests (Fig. 4)
  std::uint64_t seed = 42;       ///< request stream seed
};

/// Runs the simulator against `program`. Arrival window is one major cycle
/// (arrivals are uniform modulo the cycle anyway, so one cycle is exact for
/// the uniform process).
SimResult simulate_requests(const BroadcastProgram& program,
                            const Workload& workload, const SimConfig& config);

/// Same, but over a pre-generated request stream (used by tests that need
/// to inspect individual waits and by the hybrid simulator). Waits come from
/// compute_waits (page-batched), then statistics accumulate in original
/// request order, so the result is bit-identical to the scalar oracle
/// (tests/oracles: one wait_after binary search per request).
SimResult simulate_requests(const AppearanceIndex& index,
                            const Workload& workload,
                            const std::vector<Request>& requests);

/// The batched wait kernel: groups requests per page (counting sort), then
/// answers each page's bucket with either a phase-sorted merge walk along
/// the appearance list (amortised O(1) per request) or, for buckets smaller
/// than the list, per-request binary search over the cache-resident span.
/// `waits[i]` receives the wait of `requests[i]` — identical bit for bit to
/// `wait_for(index, requests[i].page, requests[i].arrival)`.
void compute_waits(const AppearanceIndex& index, SlotCount page_count,
                   const std::vector<Request>& requests,
                   std::vector<double>& waits);

/// Single-request wait in slots (exposed for tests and the hybrid model).
double wait_for(const AppearanceIndex& index, PageId page, double arrival);

}  // namespace tcsa
