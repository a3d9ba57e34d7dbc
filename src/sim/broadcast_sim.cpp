#include "sim/broadcast_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace tcsa {
namespace {

/// One request's phase within the cycle, bound to its original stream index
/// so per-page batches can be processed in any order yet write their wait
/// back to the right slot.
struct PhasedRequest {
  double phase = 0.0;
  std::uint32_t index = 0;
};

struct SimMetrics {
  obs::MetricId requests;
  obs::MetricId misses;
  obs::MetricId wait_hist;
  obs::MetricId batch_hist;
};

const SimMetrics& sim_metrics() {
  static const SimMetrics metrics{
      obs::register_counter("tcsa_sim_requests_total",
                            "Client requests simulated"),
      obs::register_counter("tcsa_sim_deadline_misses_total",
                            "Simulated requests whose wait exceeded t_i"),
      obs::register_histogram("tcsa_sim_wait_slots",
                              "Request wait distribution (slots)"),
      obs::register_histogram("tcsa_sim_batch_size",
                              "Per-page request batch sizes in compute_waits"),
  };
  return metrics;
}

}  // namespace

double wait_for(const AppearanceIndex& index, PageId page, double arrival) {
  return index.wait_after(page, arrival);
}

void compute_waits(const AppearanceIndex& index, SlotCount page_count,
                   const std::vector<Request>& requests,
                   std::vector<double>& waits) {
  const std::size_t n = static_cast<std::size_t>(page_count);
  const std::size_t count = requests.size();
  const double cycle = static_cast<double>(index.cycle_length());
  TCSA_REQUIRE(count <= 0xffffffffu,
               "simulate_requests: request stream too large");
  TCSA_TRACE_SPAN_VAR(span, "sim.compute_waits");
  if (span.active()) span.set_arg("requests", count);
  waits.resize(count);

  // Counting sort by page, carrying the phase (the exact expression the
  // scalar AppearanceIndex::wait_after uses) alongside the stream index.
  std::vector<std::size_t> page_start(n + 1, 0);
  for (const Request& request : requests) {
    TCSA_REQUIRE(request.page < page_count,
                 "simulate_requests: request references unknown page");
    ++page_start[static_cast<std::size_t>(request.page) + 1];
  }
  for (std::size_t p = 0; p < n; ++p) page_start[p + 1] += page_start[p];

  // Appearance times are integral, so the appearance serving phase p depends
  // only on s = floor(p): the first time strictly greater than p is the
  // first time >= s + 1, for every p in [s, s+1). Dense streams therefore
  // radix-sort by (slot, page) — two O(count) counting passes, no comparison
  // sort — and merge-walk each page with integer comparisons. Sparse streams
  // (fewer requests than slot buckets are worth) skip the slot pass and
  // binary-search inside each page bucket instead.
  std::vector<PhasedRequest> order(count);
  const auto cycle_slots = static_cast<std::size_t>(index.cycle_length());
  const bool dense = count >= (cycle_slots + n) / 4;
  if (dense) {
    std::vector<double> phase(count);
    // Slot histogram; +2 leaves room for a phase that rounds up to exactly
    // `cycle` (possible for arrivals just below a cycle boundary).
    std::vector<std::size_t> slot_start(cycle_slots + 2, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const double at = requests[i].arrival;
      phase[i] = at - std::floor(at / cycle) * cycle;
      ++slot_start[static_cast<std::size_t>(phase[i]) + 1];
    }
    for (std::size_t s = 0; s + 1 < slot_start.size(); ++s)
      slot_start[s + 1] += slot_start[s];
    std::vector<std::uint32_t> by_slot(count);
    for (std::size_t i = 0; i < count; ++i)
      by_slot[slot_start[static_cast<std::size_t>(phase[i])]++] =
          static_cast<std::uint32_t>(i);
    // Stable pass by page preserves the ascending-slot order per bucket.
    std::vector<std::size_t> cursor(page_start.begin(), page_start.end() - 1);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t i = by_slot[k];
      order[cursor[requests[i].page]++] = {phase[i], i};
    }
  } else {
    std::vector<std::size_t> cursor(page_start.begin(), page_start.end() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      const double at = requests[i].arrival;
      order[cursor[requests[i].page]++] = {
          at - std::floor(at / cycle) * cycle, static_cast<std::uint32_t>(i)};
    }
  }

  const bool obs_on = obs::enabled();
  for (PageId page = 0; static_cast<SlotCount>(page) < page_count; ++page) {
    const auto begin = static_cast<std::ptrdiff_t>(page_start[page]);
    const auto end = static_cast<std::ptrdiff_t>(
        page_start[static_cast<std::size_t>(page) + 1]);
    if (begin == end) continue;
    if (obs_on)
      obs::histogram_observe(sim_metrics().batch_hist,
                             static_cast<double>(end - begin));
    const std::span<const SlotCount> times = index.appearances(page);
    TCSA_REQUIRE(!times.empty(),
                 "AppearanceIndex: page never appears in the program");
    const double wrap = static_cast<double>(times.front()) + cycle;
    if (!dense) {
      for (std::ptrdiff_t k = begin; k < end; ++k) {
        const double p = order[k].phase;
        const auto it = std::upper_bound(times.begin(), times.end(), p,
                                         [](double value, SlotCount t) {
                                           return value <
                                                  static_cast<double>(t);
                                         });
        waits[order[k].index] =
            it != times.end() ? static_cast<double>(*it) - p : wrap - p;
      }
      continue;
    }
    // Ascending slots let one pointer sweep the appearance list. For
    // p in [s, s+1) an integral time t satisfies t <= p exactly when
    // t <= s, so the walk condition is a pure integer comparison.
    std::size_t next = 0;  // first appearance strictly after the phase
    for (std::ptrdiff_t k = begin; k < end; ++k) {
      const double p = order[k].phase;
      const auto s = static_cast<SlotCount>(p);
      while (next < times.size() && times[next] <= s) ++next;
      waits[order[k].index] = next < times.size()
                                  ? static_cast<double>(times[next]) - p
                                  : wrap - p;
    }
  }
}

SimResult simulate_requests(const AppearanceIndex& index,
                            const Workload& workload,
                            const std::vector<Request>& requests) {
  SimResult result;
  result.requests = requests.size();
  result.group_avg_delay.assign(
      static_cast<std::size_t>(workload.group_count()), 0.0);
  if (requests.empty()) return result;

  TCSA_TRACE_SPAN_VAR(span, "sim.simulate_requests");
  if (span.active()) span.set_arg("requests", requests.size());

  std::vector<double> request_waits;
  compute_waits(index, workload.total_pages(), requests, request_waits);

  OnlineStats waits;
  SampleSet delays;
  delays.reserve(requests.size());
  std::vector<OnlineStats> group_delays(
      static_cast<std::size_t>(workload.group_count()));
  std::size_t misses = 0;

  const bool obs_on = obs::enabled();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const double wait = request_waits[i];
    const GroupId g = workload.group_of(requests[i].page);
    const auto deadline = static_cast<double>(workload.expected_time(g));
    const double delay = std::max(0.0, wait - deadline);
    waits.add(wait);
    delays.add(delay);
    group_delays[static_cast<std::size_t>(g)].add(delay);
    if (wait > deadline) ++misses;
    if (obs_on) obs::histogram_observe(sim_metrics().wait_hist, wait);
  }
  if (obs_on) {
    const SimMetrics& sm = sim_metrics();
    obs::counter_add(sm.requests, requests.size());
    obs::counter_add(sm.misses, misses);
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

SimResult simulate_requests(const BroadcastProgram& program,
                            const Workload& workload,
                            const SimConfig& config) {
  const AppearanceIndex index(program, workload.total_pages());
  Rng rng(config.seed);
  const auto window = static_cast<double>(program.cycle_length());
  const std::vector<Request> requests =
      generate_requests(workload, window, config.requests, rng);
  return simulate_requests(index, workload, requests);
}

}  // namespace tcsa
