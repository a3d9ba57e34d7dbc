#include "model/appearance_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace tcsa {

AppearanceIndex::AppearanceIndex(const BroadcastProgram& program,
                                 SlotCount page_count)
    : cycle_length_(program.cycle_length()) {
  TCSA_REQUIRE(page_count >= 1, "AppearanceIndex: need at least one page");
  const auto n = static_cast<std::size_t>(page_count);

  // Counting pass, then bucket fill — two passes, no per-page vectors.
  std::vector<std::size_t> counts(n, 0);
  for (SlotCount ch = 0; ch < program.channels(); ++ch) {
    for (SlotCount s = 0; s < cycle_length_; ++s) {
      const PageId p = program.at(ch, s);
      if (p == kNoPage) continue;
      TCSA_REQUIRE(p < page_count,
                   "AppearanceIndex: program references unknown page");
      ++counts[p];
    }
  }
  offset_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) offset_[i + 1] = offset_[i] + counts[i];
  flat_.assign(offset_.back(), 0);

  std::vector<std::size_t> cursor(offset_.begin(), offset_.end() - 1);
  // Fill in time order so per-page lists come out sorted; a page can
  // appear on several channels in the same column, which yields equal
  // (still ordered) times.
  program.for_each_in_time_order([&](SlotCount slot, PageId p) {
    flat_[cursor[p]++] = slot + 1;  // completion time of `slot`
  });
}

std::span<const SlotCount> AppearanceIndex::appearances(PageId page) const {
  TCSA_REQUIRE(static_cast<std::size_t>(page) + 1 < offset_.size(),
               "AppearanceIndex: page out of range");
  const std::size_t begin = offset_[page];
  const std::size_t end = offset_[page + 1];
  return {flat_.data() + begin, end - begin};
}

double AppearanceIndex::wait_after(PageId page, double at) const {
  const auto times = appearances(page);
  TCSA_REQUIRE(!times.empty(),
               "AppearanceIndex: page never appears in the program");
  const double cycle = static_cast<double>(cycle_length_);
  const double base = std::floor(at / cycle) * cycle;
  const double phase = at - base;
  // First completion time strictly greater than `phase`.
  const auto it = std::upper_bound(times.begin(), times.end(), phase,
                                   [](double value, SlotCount t) {
                                     return value < static_cast<double>(t);
                                   });
  if (it != times.end()) return static_cast<double>(*it) - phase;
  return static_cast<double>(times.front()) + cycle - phase;
}

SlotCount AppearanceIndex::max_gap(PageId page) const {
  const auto times = appearances(page);
  TCSA_REQUIRE(!times.empty(),
               "AppearanceIndex: page never appears in the program");
  if (times.size() == 1) return cycle_length_;
  SlotCount worst = times.front() + cycle_length_ - times.back();
  for (std::size_t i = 1; i < times.size(); ++i)
    worst = std::max(worst, times[i] - times[i - 1]);
  return worst;
}

}  // namespace tcsa
