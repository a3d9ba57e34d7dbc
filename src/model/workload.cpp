#include "model/workload.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {

Workload::Workload(std::vector<GroupSpec> groups) : groups_(std::move(groups)) {
  TCSA_REQUIRE(!groups_.empty(), "Workload: need at least one group");
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    TCSA_REQUIRE(groups_[i].expected_time >= 1,
                 "Workload: expected time must be >= 1 slot");
    TCSA_REQUIRE(groups_[i].pages >= 1,
                 "Workload: every group must contain at least one page");
    if (i > 0) {
      TCSA_REQUIRE(groups_[i].expected_time > groups_[i - 1].expected_time,
                   "Workload: expected times must be strictly increasing");
      TCSA_REQUIRE(groups_[i].expected_time % groups_[i - 1].expected_time == 0,
                   "Workload: each expected time must divide the next "
                   "(Section 2 ladder)");
    }
  }
  first_page_.reserve(groups_.size() + 1);
  first_page_.push_back(0);
  for (const GroupSpec& g : groups_) {
    // Checked before adding: a hostile page count must not overflow the sum.
    TCSA_REQUIRE(g.pages <= static_cast<SlotCount>(kNoPage) - total_pages_,
                 "Workload: too many pages for PageId");
    total_pages_ += g.pages;
    first_page_.push_back(static_cast<PageId>(total_pages_));
  }
  page_group_.resize(static_cast<std::size_t>(total_pages_));
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::fill(page_group_.begin() + first_page_[g],
              page_group_.begin() + first_page_[g + 1],
              static_cast<GroupId>(g));
  }
}

SlotCount Workload::expected_time(GroupId g) const {
  TCSA_REQUIRE(g >= 0 && g < group_count(), "Workload: group out of range");
  return groups_[static_cast<std::size_t>(g)].expected_time;
}

SlotCount Workload::pages_in_group(GroupId g) const {
  TCSA_REQUIRE(g >= 0 && g < group_count(), "Workload: group out of range");
  return groups_[static_cast<std::size_t>(g)].pages;
}

PageId Workload::first_page(GroupId g) const {
  TCSA_REQUIRE(g >= 0 && g < group_count(), "Workload: group out of range");
  return first_page_[static_cast<std::size_t>(g)];
}

GroupId Workload::group_of(PageId page) const {
  TCSA_REQUIRE(page < total_pages_, "Workload: page id out of range");
  return page_group_[page];
}

std::string Workload::describe() const {
  std::string text = str_cat("h=", groups_.size(), " n=", total_pages_, " t=[");
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (i) text += ',';
    str_append(text, groups_[i].expected_time);
  }
  text += "] P=[";
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (i) text += ',';
    str_append(text, groups_[i].pages);
  }
  text += ']';
  return text;
}

Workload make_workload(const std::vector<SlotCount>& times,
                       const std::vector<SlotCount>& pages) {
  TCSA_REQUIRE(times.size() == pages.size(),
               "make_workload: times/pages length mismatch");
  std::vector<GroupSpec> groups;
  groups.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i)
    groups.push_back(GroupSpec{times[i], pages[i]});
  return Workload(std::move(groups));
}

}  // namespace tcsa
