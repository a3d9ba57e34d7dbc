// distributions.hpp — the paper's group-size distributions (Figure 3).
//
// The broadcast data generator partitions n pages over h deadline groups
// following one of four shapes. The paper shows the shapes only graphically;
// we encode them as weight curves over the group index and round to integer
// page counts with a largest-remainder scheme that preserves the total and
// keeps every group non-empty:
//
//   * uniform  — equal weight per group.
//   * normal   — bell curve centred on the middle group (sigma = h/4).
//   * L-skewed — mass concentrated in the *low* groups (tight deadlines),
//                geometric decay; the silhouette of the letter 'L'.
//   * S-skewed — the mirror image: mass concentrated in the *high* groups
//                (loose deadlines), geometric growth.
//
// Two extension shapes are included for ablations: Zipf over the group index
// and "binomial" (a discrete bell that is heavier-tailed than normal).
#pragma once

#include <string>
#include <vector>

#include "model/workload.hpp"

namespace tcsa {

enum class GroupSizeShape {
  kUniform,
  kNormal,
  kLSkewed,
  kSSkewed,
  kZipf,      // extension: weight 1/(g+1)
  kBinomial,  // extension: C(h-1, g) weights
};

/// Canonical lower-case name of a shape.
std::string shape_name(GroupSizeShape shape);

/// All four paper shapes, in Figure-5 order (normal, L, S, uniform).
std::vector<GroupSizeShape> paper_shapes();

/// Page counts per group: h entries, each >= 1, summing exactly to n.
/// Preconditions: h >= 1, n >= h.
std::vector<SlotCount> group_sizes(GroupSizeShape shape, GroupId h,
                                   SlotCount n);

/// Assembles the paper's default-style workload: h groups with expected
/// times t1, t1*c, ..., t1*c^(h-1) and group sizes from `shape`.
/// Figure 4 defaults: shape in {normal,lskewed,sskewed,uniform}, h = 8,
/// n = 1000, t1 = 4, c = 2.
Workload make_paper_workload(GroupSizeShape shape, GroupId h = 8,
                             SlotCount n = 1000, SlotCount t1 = 4,
                             SlotCount c = 2);

}  // namespace tcsa
