// workload.hpp — the broadcast workload: groups of pages with expected times.
//
// Section 2 of the paper: pages are partitioned into h groups G_1..G_h; every
// page of G_i shares the expected time t_i, and the t_i form a divisibility
// ladder (the paper uses the geometric special case t_{i+1} = c * t_i with a
// single integer c >= 2; every theorem only needs t_i | t_{i+1}, which is what
// this class enforces, so mixed-ratio ladders are supported as an extension).
#pragma once

#include <string>
#include <vector>

#include "model/types.hpp"

namespace tcsa {

/// One deadline class: `pages` pages sharing `expected_time` slots.
struct GroupSpec {
  SlotCount expected_time = 0;  ///< t_i, in slot units (>= 1)
  SlotCount pages = 0;          ///< P_i (>= 1)

  friend bool operator==(const GroupSpec&, const GroupSpec&) = default;
};

/// Immutable, validated workload. Construction sorts nothing: callers supply
/// groups in strictly ascending expected-time order (the paper's G_1..G_h).
class Workload {
 public:
  /// Validates and adopts the group list.
  /// Preconditions: at least one group; every expected_time >= 1 and every
  /// pages >= 1; expected times strictly increasing with t_i | t_{i+1}.
  explicit Workload(std::vector<GroupSpec> groups);

  /// Number of groups h.
  GroupId group_count() const noexcept {
    return static_cast<GroupId>(groups_.size());
  }

  /// Total number of distinct pages n.
  SlotCount total_pages() const noexcept { return total_pages_; }

  /// t_i for group g in [0, h).
  SlotCount expected_time(GroupId g) const;

  /// P_i for group g in [0, h).
  SlotCount pages_in_group(GroupId g) const;

  /// Largest expected time t_h (the SUSC cycle length).
  SlotCount max_expected_time() const noexcept {
    return groups_.back().expected_time;
  }

  /// First global page id of group g (groups own contiguous id ranges).
  PageId first_page(GroupId g) const;

  /// Group owning the given page id. O(1): a dense page -> group table is
  /// built once at construction (the simulator calls this per request).
  GroupId group_of(PageId page) const;

  /// Expected time of the given page's group.
  SlotCount expected_time_of(PageId page) const {
    return expected_time(group_of(page));
  }

  const std::vector<GroupSpec>& groups() const noexcept { return groups_; }

  /// One-line human-readable description, e.g. "h=3 n=11 t=[2,4,8] P=[3,5,3]".
  std::string describe() const;

  friend bool operator==(const Workload&, const Workload&) = default;

 private:
  std::vector<GroupSpec> groups_;
  std::vector<PageId> first_page_;   // prefix sums, size h+1
  std::vector<GroupId> page_group_;  // dense page -> group table, size n
  SlotCount total_pages_ = 0;
};

/// Convenience builder for tests/examples: groups from parallel arrays.
/// `times[i]` is t_{i+1}, `pages[i]` is P_{i+1}; arrays must be equal length.
Workload make_workload(const std::vector<SlotCount>& times,
                       const std::vector<SlotCount>& pages);

}  // namespace tcsa
