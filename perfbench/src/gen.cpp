#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "core/channel_bound.hpp"
#include "model/serialize.hpp"
#include "workload/distributions.hpp"

namespace perfbench {
namespace {

/// Largest-remainder rounding of positive weights to integers >= 1 that sum
/// to `total`.
std::vector<SlotCount> apportion(const std::vector<double>& weights,
                                 SlotCount total) {
  const auto n = static_cast<SlotCount>(weights.size());
  if (total < n) throw std::invalid_argument("apportion: too few pages");
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double spare = static_cast<double>(total - n);
  std::vector<SlotCount> out(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  SlotCount given = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double share = spare * weights[i] / sum;
    out[i] = 1 + static_cast<SlotCount>(std::floor(share));
    given += out[i];
    remainders.emplace_back(share - std::floor(share), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t k = 0; given < total; ++k, ++given)
    ++out[remainders[k % remainders.size()].second];
  return out;
}

/// Quantile of the named heavy-tailed size distribution at q in (0, 1).
double size_quantile(SizeShape shape, double q) {
  switch (shape) {
    case SizeShape::kPareto:  // alpha 1.2, x_m 1
      return std::pow(1.0 - q, -1.0 / 1.2);
    case SizeShape::kLognormal:  // sigma 1
      return std::exp(inverse_normal_cdf(q));
    case SizeShape::kBimodal:  // 3/4 light groups, 1/4 eight times heavier
      return q < 0.75 ? 1.0 : 8.0;
    default:
      throw std::invalid_argument("size_quantile: not a heavy-tailed shape");
  }
}

/// Weight of popularity rank k of n (rank 0 = hottest).
double rank_weight(PopShape shape, double param, std::size_t k,
                   std::size_t n) {
  const double q = (static_cast<double>(k) + 0.5) / static_cast<double>(n);
  switch (shape) {
    case PopShape::kUniform:
      return 1.0;
    case PopShape::kZipf:
      return 1.0 / std::pow(static_cast<double>(k) + 1.0, param);
    case PopShape::kPareto:
      return std::pow(q, -1.0 / param);
    case PopShape::kLognormal:
      return std::exp(param * inverse_normal_cdf(1.0 - q));
    case PopShape::kBimodal:
      return q < 0.1 ? 10.0 : 1.0;
  }
  return 1.0;
}

}  // namespace

SizeShape parse_size_shape(const std::string& name) {
  if (name == "uniform") return SizeShape::kUniform;
  if (name == "normal") return SizeShape::kNormal;
  if (name == "lskewed") return SizeShape::kLSkewed;
  if (name == "sskewed") return SizeShape::kSSkewed;
  if (name == "pareto") return SizeShape::kPareto;
  if (name == "lognormal") return SizeShape::kLognormal;
  if (name == "bimodal") return SizeShape::kBimodal;
  throw std::invalid_argument("unknown group-size shape: " + name);
}

PopShape parse_pop_shape(const std::string& name) {
  if (name == "uniform") return PopShape::kUniform;
  if (name == "zipf") return PopShape::kZipf;
  if (name == "pareto") return PopShape::kPareto;
  if (name == "lognormal") return PopShape::kLognormal;
  if (name == "bimodal") return PopShape::kBimodal;
  throw std::invalid_argument("unknown popularity shape: " + name);
}

double inverse_normal_cdf(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw std::invalid_argument("inverse_normal_cdf: p must be in (0, 1)");
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  const auto tail = [&](double q) {
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  };
  if (p < kLow) return tail(std::sqrt(-2.0 * std::log(p)));
  if (p > 1.0 - kLow) return -tail(std::sqrt(-2.0 * std::log(1.0 - p)));
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

std::vector<SlotCount> group_sizes(SizeShape shape, std::size_t groups,
                                   SlotCount pages) {
  std::vector<double> weights(groups);
  switch (shape) {
    case SizeShape::kUniform:
    case SizeShape::kNormal:
    case SizeShape::kLSkewed:
    case SizeShape::kSSkewed: {
      static constexpr tcsa::GroupSizeShape kPaper[] = {
          tcsa::GroupSizeShape::kUniform, tcsa::GroupSizeShape::kNormal,
          tcsa::GroupSizeShape::kLSkewed, tcsa::GroupSizeShape::kSSkewed};
      const std::vector<SlotCount> base = tcsa::group_sizes(
          kPaper[static_cast<int>(shape)], static_cast<tcsa::GroupId>(groups),
          pages);
      for (std::size_t g = 0; g < groups; ++g)
        weights[g] = static_cast<double>(base[g]);
      break;
    }
    default:
      // Stratified quantiles, ascending with the deadline: the loosest class
      // holds the heavy tail, as cold content does in a real catalog.
      for (std::size_t g = 0; g < groups; ++g)
        weights[g] = size_quantile(
            shape, (static_cast<double>(g) + 0.5) / static_cast<double>(groups));
      break;
  }
  return apportion(weights, pages);
}

tcsa::Workload make_catalog(const CatalogSpec& spec) {
  const std::vector<SlotCount> sizes =
      group_sizes(spec.shape, spec.times.size(), spec.pages);
  return tcsa::make_workload(spec.times, sizes);
}

std::vector<double> page_weights(const tcsa::Workload& workload,
                                 PopShape shape, double param, tcsa::Rng& rng) {
  const auto n = static_cast<std::size_t>(workload.total_pages());
  const auto h = static_cast<std::size_t>(workload.group_count());
  // Deal ranks to groups by largest deficit against their size share.
  std::vector<std::vector<std::size_t>> ranks(h);
  std::vector<double> dealt(h, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t g = 0; g < h; ++g) {
      const double share =
          static_cast<double>(workload.pages_in_group(static_cast<int>(g))) /
          static_cast<double>(n);
      const double deficit = share * static_cast<double>(k + 1) - dealt[g];
      if (deficit > best_deficit &&
          ranks[g].size() < static_cast<std::size_t>(workload.pages_in_group(
                                static_cast<int>(g)))) {
        best_deficit = deficit;
        best = g;
      }
    }
    ranks[best].push_back(k);
    dealt[best] += 1.0;
  }
  std::vector<double> weights(n, 0.0);
  for (std::size_t g = 0; g < h; ++g) {
    std::vector<PageId> pages(ranks[g].size());
    std::iota(pages.begin(), pages.end(),
              workload.first_page(static_cast<int>(g)));
    for (std::size_t i = pages.size(); i > 1; --i)
      std::swap(pages[i - 1],
                pages[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    for (std::size_t i = 0; i < pages.size(); ++i)
      weights[pages[i]] = rank_weight(shape, param, ranks[g][i], n);
  }
  return weights;
}

std::vector<Arrival> poisson_arrivals(tcsa::Rng& rng, double rate_per_s,
                                      double seconds, std::int64_t slot_ns,
                                      const std::vector<double>& weights,
                                      std::uint32_t patience_min,
                                      std::uint32_t patience_max) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0) return out;
  const tcsa::DiscreteSampler sampler(weights);
  const double end_ns = seconds * 1e9;
  double t = rng.uniform01() * static_cast<double>(slot_ns);
  for (;;) {
    t += rng.exponential(rate_per_s) * 1e9;
    if (t >= end_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    a.page = static_cast<PageId>(sampler.sample(rng));
    a.patience = static_cast<std::uint32_t>(
        rng.uniform_int(patience_min, patience_max));
    out.push_back(a);
  }
  return out;
}

std::vector<std::string> workload_names() {
  return {"push-ladder", "catalog-swap", "hybrid-pull"};
}

WorkloadConfig workload_config(const std::string& name) {
  const std::vector<SlotCount> fig4 = {4, 8, 16, 32, 64, 128, 256, 512};
  WorkloadConfig c;
  c.name = name;
  if (name == "push-ladder") {
    // Sufficient channels, one SUSC at start-up, pull plane idle: the
    // airing plane, frame cache, cross-loop hand-off and egress carry it.
    c.catalog = {fig4, 1000, SizeShape::kNormal};
    c.partner = {fig4, 1000, SizeShape::kUniform};
    c.popularity = PopShape::kUniform;
    c.slot_us = 1000;  // the nominal rung, well below the knee
    c.loops = 2;
    c.receivers = 4;
    c.rate_per_session = 200.0;
    c.ladder_us = {1000, 500, 250, 160, 100, 64, 40, 25};
    c.exact_slot_check = true;
  } else if (name == "catalog-swap") {
    // Catalog scale: start-up and every swap are scheduler, validation and
    // seam planning; the major cycle (1024 slots of 1 ms) stays about 1 s.
    c.catalog = {{128, 256, 512, 1024}, 10000, SizeShape::kPareto};
    c.partner = {{128, 256, 512, 1024}, 10000, SizeShape::kLognormal};
    c.popularity = PopShape::kZipf;
    c.popularity_param = 0.8;
    c.slot_us = 1000;
    c.loops = 1;
    c.receivers = 3;
    c.control_session = true;
    c.rate_per_session = 100.0;
    c.exact_slot_check = true;
  } else if (name == "hybrid-pull") {
    // Half the Theorem 3.1 bound (PAMAD) plus two LWF pull channels, with
    // impatient clients: the request plane and near-unicast pull egress.
    c.catalog = {fig4, 1000, SizeShape::kNormal};
    c.partner = {fig4, 1000, SizeShape::kSSkewed};
    c.popularity = PopShape::kZipf;
    c.popularity_param = 0.9;
    // 5 ms slots: a millisecond stall of the server or the host stays
    // inside one slot, and 1.5 wants per slot keep the two pull channels
    // busy enough that the delay tail is queueing, not stalls.
    c.slot_us = 5000;
    c.loops = 2;
    c.pull_channels = 2;
    c.channel_share = 0.5;
    c.receivers = 4;
    c.rate_per_session = 75.0;
    c.patience_min = 1;
    c.patience_max = 2;
    c.check_rate_per_session = 100.0;
    c.check_seconds = 3.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return c;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   double seconds) {
  const WorkloadConfig config = workload_config(workload);
  tcsa::Rng root(seed);
  tcsa::Rng popularity_rng = root.fork(3);
  Inputs in{config, make_catalog(config.catalog), make_catalog(config.partner),
            0, {}, {}};
  const SlotCount bound = std::max(tcsa::min_channels(in.catalog),
                                   config.control_session
                                       ? tcsa::min_channels(in.partner)
                                       : SlotCount{0});
  in.channels = std::max<SlotCount>(
      1, static_cast<SlotCount>(
             std::floor(config.channel_share * static_cast<double>(bound))));
  const std::vector<double> weights = page_weights(
      in.catalog, config.popularity, config.popularity_param, popularity_rng);
  const std::int64_t slot_ns = std::int64_t{config.slot_us} * 1000;
  for (int s = 0; s < config.receivers; ++s) {
    tcsa::Rng rng = root.fork(100 + static_cast<std::uint64_t>(s));
    in.arrivals.push_back(poisson_arrivals(
        rng, config.rate_per_session, seconds, slot_ns, weights,
        config.patience_min, config.patience_max));
    tcsa::Rng check_rng = root.fork(200 + static_cast<std::uint64_t>(s));
    in.check_arrivals.push_back(
        poisson_arrivals(check_rng, config.check_rate_per_session,
                         config.check_seconds, slot_ns, weights, 0, 0));
  }
  return in;
}

void write_inputs(const Inputs& inputs, const std::string& dir) {
  std::ofstream(dir + "/catalog.tcsa") << tcsa::workload_to_string(inputs.catalog);
  std::ofstream(dir + "/partner.tcsa") << tcsa::workload_to_string(inputs.partner);
  std::ofstream out(dir + "/arrivals.txt");
  out << "# channels " << inputs.channels << "\n";
  const auto dump = [&](const char* phase,
                        const std::vector<std::vector<Arrival>>& sessions) {
    for (std::size_t s = 0; s < sessions.size(); ++s)
      for (const Arrival& a : sessions[s])
        out << phase << ' ' << s << ' ' << a.due_ns << ' ' << a.page << ' '
            << a.patience << '\n';
  };
  dump("main", inputs.arrivals);
  dump("check", inputs.check_arrivals);
  if (!out) throw std::runtime_error("cannot write inputs into " + dir);
}

}  // namespace perfbench
