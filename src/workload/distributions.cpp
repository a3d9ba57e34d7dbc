#include "workload/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"

namespace tcsa {
namespace {

std::vector<double> shape_weights(GroupSizeShape shape, GroupId h) {
  const auto hh = static_cast<std::size_t>(h);
  std::vector<double> w(hh, 0.0);
  switch (shape) {
    case GroupSizeShape::kUniform:
      std::fill(w.begin(), w.end(), 1.0);
      break;
    case GroupSizeShape::kNormal: {
      const double mu = (static_cast<double>(h) - 1.0) / 2.0;
      const double sigma = std::max(1.0, static_cast<double>(h) / 4.0);
      for (std::size_t g = 0; g < hh; ++g) {
        const double z = (static_cast<double>(g) - mu) / sigma;
        w[g] = std::exp(-0.5 * z * z);
      }
      break;
    }
    case GroupSizeShape::kLSkewed:
      // Geometric decay: most pages have the tightest deadlines. The 0.7
      // factor matches the moderate skew of the paper's Figure 3 silhouette
      // (0.5 would be far steeper than anything the figure shows).
      for (std::size_t g = 0; g < hh; ++g)
        w[g] = std::pow(0.7, static_cast<double>(g));
      break;
    case GroupSizeShape::kSSkewed:
      // Mirror image: most pages have the loosest deadlines.
      for (std::size_t g = 0; g < hh; ++g)
        w[g] = std::pow(0.7, static_cast<double>(hh - 1 - g));
      break;
    case GroupSizeShape::kZipf:
      for (std::size_t g = 0; g < hh; ++g)
        w[g] = 1.0 / static_cast<double>(g + 1);
      break;
    case GroupSizeShape::kBinomial: {
      // C(h-1, g), computed iteratively to avoid overflow for small h.
      double value = 1.0;
      for (std::size_t g = 0; g < hh; ++g) {
        w[g] = value;
        value = value * static_cast<double>(hh - 1 - g) /
                static_cast<double>(g + 1);
      }
      break;
    }
  }
  return w;
}

}  // namespace

std::string shape_name(GroupSizeShape shape) {
  switch (shape) {
    case GroupSizeShape::kUniform: return "uniform";
    case GroupSizeShape::kNormal: return "normal";
    case GroupSizeShape::kLSkewed: return "lskewed";
    case GroupSizeShape::kSSkewed: return "sskewed";
    case GroupSizeShape::kZipf: return "zipf";
    case GroupSizeShape::kBinomial: return "binomial";
  }
  throw std::invalid_argument("unknown GroupSizeShape value");
}

std::vector<GroupSizeShape> paper_shapes() {
  return {GroupSizeShape::kNormal, GroupSizeShape::kLSkewed,
          GroupSizeShape::kSSkewed, GroupSizeShape::kUniform};
}

std::vector<SlotCount> group_sizes(GroupSizeShape shape, GroupId h,
                                   SlotCount n) {
  TCSA_REQUIRE(h >= 1, "group_sizes: need at least one group");
  TCSA_REQUIRE(n >= h, "group_sizes: need at least one page per group");
  const auto hh = static_cast<std::size_t>(h);
  const std::vector<double> w = shape_weights(shape, h);
  const double total_weight = std::accumulate(w.begin(), w.end(), 0.0);
  TCSA_ASSERT(total_weight > 0.0, "group_sizes: degenerate weights");

  // Guarantee one page per group, distribute the remainder proportionally,
  // then hand out leftovers by largest fractional remainder.
  const SlotCount spare = n - h;
  std::vector<SlotCount> sizes(hh, 1);
  std::vector<std::pair<double, std::size_t>> remainders(hh);
  SlotCount assigned = 0;
  for (std::size_t g = 0; g < hh; ++g) {
    const double exact = static_cast<double>(spare) * w[g] / total_weight;
    const auto whole = static_cast<SlotCount>(std::floor(exact));
    sizes[g] += whole;
    assigned += whole;
    remainders[g] = {exact - std::floor(exact), g};
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break
            });
  const SlotCount leftover = spare - assigned;
  for (SlotCount i = 0; i < leftover; ++i)
    ++sizes[remainders[static_cast<std::size_t>(i)].second];

  TCSA_ASSERT(std::accumulate(sizes.begin(), sizes.end(), SlotCount{0}) == n,
              "group_sizes: rounding lost pages");
  return sizes;
}

Workload make_paper_workload(GroupSizeShape shape, GroupId h, SlotCount n,
                             SlotCount t1, SlotCount c) {
  TCSA_REQUIRE(t1 >= 1, "make_paper_workload: t1 must be >= 1");
  TCSA_REQUIRE(c >= 2, "make_paper_workload: ratio c must be >= 2");
  const std::vector<SlotCount> sizes = group_sizes(shape, h, n);
  std::vector<GroupSpec> groups;
  groups.reserve(static_cast<std::size_t>(h));
  SlotCount t = t1;
  for (std::size_t g = 0; g < static_cast<std::size_t>(h); ++g) {
    groups.push_back(GroupSpec{t, sizes[g]});
    TCSA_REQUIRE(t <= std::numeric_limits<SlotCount>::max() / c,
                 "make_paper_workload: expected time overflow");
    t *= c;
  }
  return Workload(std::move(groups));
}

}  // namespace tcsa
