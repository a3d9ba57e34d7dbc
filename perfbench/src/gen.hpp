// gen.hpp — the benchmark's seeded input generator.
//
// Everything a run feeds the server or times against it comes from here and
// from the run's seed alone: the catalogs (group sizes per deadline class),
// page popularity, and the open-loop arrival schedule. The server receives
// only the catalog files; the arrival schedule stays on the client side.
//
// Seeds vary the inputs without moving the figures a run reports: a
// workload's catalog is fixed (group sizes are stratified quantiles of their
// distribution), and popularity ranks are dealt to groups in proportion to
// group size, so the request mix over deadline classes is the same for every
// seed while the identity of the hot pages and the arrival times change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

using tcsa::PageId;
using tcsa::SlotCount;

/// Group-size shapes: the paper's four (Fig. 3) plus three heavy-tailed ones.
enum class SizeShape {
  kUniform, kNormal, kLSkewed, kSSkewed,  // paper shapes
  kPareto, kLognormal, kBimodal,
};

/// Page-popularity shapes over popularity rank.
enum class PopShape { kUniform, kZipf, kPareto, kLognormal, kBimodal };

SizeShape parse_size_shape(const std::string& name);
PopShape parse_pop_shape(const std::string& name);

/// One catalog recipe: deadline ladder, page count and group-size shape.
struct CatalogSpec {
  std::vector<SlotCount> times;  ///< ascending divisibility ladder t_i
  SlotCount pages = 0;
  SizeShape shape = SizeShape::kUniform;
};

/// Pages per group: `groups` entries, each >= 1, summing to `pages`.
std::vector<SlotCount> group_sizes(SizeShape shape, std::size_t groups,
                                   SlotCount pages);

tcsa::Workload make_catalog(const CatalogSpec& spec);

/// Per-page request weights: rank weights of `shape` dealt to groups in
/// proportion to their size, shuffled within each group.
std::vector<double> page_weights(const tcsa::Workload& workload,
                                 PopShape shape, double param, tcsa::Rng& rng);

/// One open-loop request: due time (ns after the window starts), the page,
/// and the client's patience in slots (0 = waits for the broadcast and asks
/// for the page at once, > 0 = impatient want that turns into a pull
/// request when the page has not aired within that many slots).
struct Arrival {
  std::int64_t due_ns = 0;
  PageId page = 0;
  std::uint32_t patience = 0;
};

/// Poisson arrivals at `rate_per_s` over [phase, seconds), where the phase
/// is a uniform offset within one slot (the paper's random tune-in time).
std::vector<Arrival> poisson_arrivals(tcsa::Rng& rng, double rate_per_s,
                                      double seconds, std::int64_t slot_ns,
                                      const std::vector<double>& weights,
                                      std::uint32_t patience_min,
                                      std::uint32_t patience_max);

/// Inverse standard normal CDF (Acklam's rational approximation).
double inverse_normal_cdf(double p);

/// A benchmark workload: what the server is launched with and how the
/// clients drive it. Fixed per name; only the seed varies between runs.
struct WorkloadConfig {
  std::string name;
  CatalogSpec catalog;        ///< aired at launch
  CatalogSpec partner;        ///< swap target (and the seam-planning probe)
  PopShape popularity = PopShape::kUniform;
  double popularity_param = 0.0;
  std::uint32_t slot_us = 1000;
  int loops = 1;
  int pull_channels = 0;
  double channel_share = 1.0;  ///< channels = share x Theorem 3.1 bound
  int receivers = 4;           ///< full-receiver sessions that send requests
  bool control_session = false;  ///< one more session that sends kSwap
  double rate_per_session = 100.0;  ///< requests per second per receiver
  std::uint32_t patience_min = 0;
  std::uint32_t patience_max = 0;
  std::vector<std::uint32_t> ladder_us;  ///< slot lengths of the rate ladder
  bool exact_slot_check = false;  ///< sufficient channels: slot-index check
  double check_rate_per_session = 0.0;  ///< > 0: pull-off check run
  double check_seconds = 0.0;
};

/// The three workloads, by name; throws std::invalid_argument otherwise.
WorkloadConfig workload_config(const std::string& name);
std::vector<std::string> workload_names();

/// The generated inputs of one run.
struct Inputs {
  WorkloadConfig config;
  tcsa::Workload catalog;
  tcsa::Workload partner;
  SlotCount channels = 0;
  std::vector<std::vector<Arrival>> arrivals;  ///< per receiver, main window
  std::vector<std::vector<Arrival>> check_arrivals;  ///< pull-off check run
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   double seconds);

/// Writes the catalogs (tcsa-workload text, what the server loads) and the
/// arrival schedules into `dir`: catalog.tcsa, partner.tcsa, arrivals.txt.
void write_inputs(const Inputs& inputs, const std::string& dir);

}  // namespace perfbench
