// Tests for src/model: Workload invariants, BroadcastProgram grid,
// AppearanceIndex queries, and the validity checker (against the
// index-based oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "model/appearance_index.hpp"
#include "model/program.hpp"
#include "model/validate.hpp"
#include "model/workload.hpp"
#include "util/rng.hpp"

#include "oracles.hpp"

namespace tcsa {
namespace {

// ----------------------------------------------------------------- workload

TEST(Workload, PaperFig2Example) {
  // Figure 2(a): P = (3, 5, 3), t = (2, 4, 8).
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  EXPECT_EQ(w.group_count(), 3);
  EXPECT_EQ(w.total_pages(), 11);
  EXPECT_EQ(w.expected_time(0), 2);
  EXPECT_EQ(w.expected_time(2), 8);
  EXPECT_EQ(w.max_expected_time(), 8);
  EXPECT_EQ(w.pages_in_group(1), 5);
  EXPECT_EQ(w.first_page(0), 0u);
  EXPECT_EQ(w.first_page(1), 3u);
  EXPECT_EQ(w.first_page(2), 8u);
}

TEST(Workload, GroupOfPageAndExpectedTimeOf) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  EXPECT_EQ(w.group_of(0), 0);
  EXPECT_EQ(w.group_of(2), 0);
  EXPECT_EQ(w.group_of(3), 1);
  EXPECT_EQ(w.group_of(7), 1);
  EXPECT_EQ(w.group_of(8), 2);
  EXPECT_EQ(w.group_of(10), 2);
  EXPECT_EQ(w.expected_time_of(0), 2);
  EXPECT_EQ(w.expected_time_of(5), 4);
  EXPECT_EQ(w.expected_time_of(10), 8);
}

TEST(Workload, GroupOfRejectsOutOfRange) {
  const Workload w = make_workload({2}, {3});
  EXPECT_THROW(w.group_of(3), std::invalid_argument);
}

TEST(Workload, SingleGroup) {
  const Workload w = make_workload({5}, {7});
  EXPECT_EQ(w.group_count(), 1);
  EXPECT_EQ(w.max_expected_time(), 5);
}

TEST(Workload, RejectsNonDividingTimes) {
  EXPECT_THROW(make_workload({2, 3}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(make_workload({4, 6}, {1, 1}), std::invalid_argument);
}

TEST(Workload, RejectsNonIncreasingTimes) {
  EXPECT_THROW(make_workload({4, 4}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(make_workload({8, 4}, {1, 1}), std::invalid_argument);
}

TEST(Workload, RejectsDegenerateGroups) {
  EXPECT_THROW(make_workload({}, {}), std::invalid_argument);
  EXPECT_THROW(make_workload({0}, {1}), std::invalid_argument);
  EXPECT_THROW(make_workload({2}, {0}), std::invalid_argument);
}

TEST(Workload, DescribeMentionsShape) {
  const std::string d = make_workload({2, 4}, {3, 5}).describe();
  EXPECT_NE(d.find("h=2"), std::string::npos);
  EXPECT_NE(d.find("n=8"), std::string::npos);
  EXPECT_NE(d.find("t=[2,4]"), std::string::npos);
  EXPECT_NE(d.find("P=[3,5]"), std::string::npos);
}

TEST(Workload, EqualityComparesGroups) {
  EXPECT_EQ(make_workload({2, 4}, {1, 2}), make_workload({2, 4}, {1, 2}));
  EXPECT_NE(make_workload({2, 4}, {1, 2}), make_workload({2, 4}, {2, 2}));
}

// ------------------------------------------------------------------ program

TEST(Program, StartsEmpty) {
  const BroadcastProgram p(3, 10);
  EXPECT_EQ(p.channels(), 3);
  EXPECT_EQ(p.cycle_length(), 10);
  EXPECT_EQ(p.occupied(), 0);
  EXPECT_EQ(p.capacity(), 30);
  for (SlotCount ch = 0; ch < 3; ++ch)
    for (SlotCount s = 0; s < 10; ++s) EXPECT_TRUE(p.empty_at(ch, s));
}

TEST(Program, PlaceAndReadBack) {
  BroadcastProgram p(2, 4);
  p.place(1, 3, 7);
  EXPECT_EQ(p.at(1, 3), 7u);
  EXPECT_FALSE(p.empty_at(1, 3));
  EXPECT_EQ(p.occupied(), 1);
}

TEST(Program, OverwriteIsALogicError) {
  BroadcastProgram p(1, 2);
  p.place(0, 0, 1);
  EXPECT_THROW(p.place(0, 0, 2), std::logic_error);
}

TEST(Program, ClearFreesSlot) {
  BroadcastProgram p(1, 2);
  p.place(0, 1, 5);
  p.clear(0, 1);
  EXPECT_TRUE(p.empty_at(0, 1));
  EXPECT_EQ(p.occupied(), 0);
  EXPECT_THROW(p.clear(0, 1), std::invalid_argument);
}

TEST(Program, BoundsChecked) {
  BroadcastProgram p(2, 3);
  EXPECT_THROW(p.at(2, 0), std::invalid_argument);
  EXPECT_THROW(p.at(0, 3), std::invalid_argument);
  EXPECT_THROW(p.at(-1, 0), std::invalid_argument);
  EXPECT_THROW(p.place(0, -1, 1), std::invalid_argument);
}

TEST(Program, CannotPlaceSentinel) {
  BroadcastProgram p(1, 1);
  EXPECT_THROW(p.place(0, 0, kNoPage), std::invalid_argument);
}

TEST(Program, ColumnLoad) {
  BroadcastProgram p(3, 2);
  p.place(0, 0, 1);
  p.place(2, 0, 2);
  EXPECT_EQ(p.column_load(0), 2);
  EXPECT_EQ(p.column_load(1), 0);
}

TEST(Program, RejectsDegenerateShape) {
  EXPECT_THROW(BroadcastProgram(0, 5), std::invalid_argument);
  EXPECT_THROW(BroadcastProgram(2, 0), std::invalid_argument);
}

TEST(Program, RenderShowsPagesAndHoles) {
  BroadcastProgram p(2, 3);
  p.place(0, 0, 12);
  const std::string out = p.render();
  EXPECT_NE(out.find("ch0"), std::string::npos);
  EXPECT_NE(out.find("ch1"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
  EXPECT_NE(out.find('.'), std::string::npos);
}

// --------------------------------------------------------- appearance index

TEST(AppearanceIndex, CompletionTimesAreSlotPlusOne) {
  BroadcastProgram p(1, 6);
  p.place(0, 0, 0);
  p.place(0, 3, 0);
  const AppearanceIndex idx(p, 1);
  const auto a = idx.appearances(0);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 4);
}

TEST(AppearanceIndex, MultiChannelSameColumnBothCounted) {
  BroadcastProgram p(2, 4);
  p.place(0, 1, 0);
  p.place(1, 1, 0);
  const AppearanceIndex idx(p, 1);
  EXPECT_EQ(idx.count(0), 2);
  EXPECT_EQ(idx.appearances(0)[0], idx.appearances(0)[1]);
}

TEST(AppearanceIndex, MissingPageHasNoAppearances) {
  BroadcastProgram p(1, 3);
  p.place(0, 0, 0);
  const AppearanceIndex idx(p, 2);
  EXPECT_EQ(idx.count(1), 0);
  EXPECT_THROW(idx.wait_after(1, 0.0), std::invalid_argument);
  EXPECT_THROW(idx.max_gap(1), std::invalid_argument);
}

TEST(AppearanceIndex, WaitWithinCycle) {
  BroadcastProgram p(1, 8);
  p.place(0, 1, 0);  // completes at 2
  p.place(0, 5, 0);  // completes at 6
  const AppearanceIndex idx(p, 1);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 2.0), 4.0);  // strictly after 2
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 5.99), 6.0 - 5.99);
}

TEST(AppearanceIndex, WaitWrapsAroundCycle) {
  BroadcastProgram p(1, 8);
  p.place(0, 1, 0);  // completes at 2
  const AppearanceIndex idx(p, 1);
  // After the only appearance, the next one is in the following cycle.
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 3.0), 2.0 + 8.0 - 3.0);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 2.0), 8.0);  // exactly at completion
}

TEST(AppearanceIndex, WaitAcceptsTimesBeyondOneCycle) {
  BroadcastProgram p(1, 4);
  p.place(0, 2, 0);  // completes at 3
  const AppearanceIndex idx(p, 1);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 4.5), 2.5);   // second cycle
  EXPECT_DOUBLE_EQ(idx.wait_after(0, 40.5), 2.5);  // tenth cycle
}

TEST(AppearanceIndex, MaxGapSingleAppearanceIsCycle) {
  BroadcastProgram p(2, 10);
  p.place(1, 4, 0);
  const AppearanceIndex idx(p, 1);
  EXPECT_EQ(idx.max_gap(0), 10);
}

TEST(AppearanceIndex, MaxGapIncludesWrap) {
  BroadcastProgram p(1, 10);
  p.place(0, 0, 0);  // completes at 1
  p.place(0, 3, 0);  // completes at 4
  const AppearanceIndex idx(p, 1);
  // Gaps: 3 (1 -> 4) and 7 (4 -> 11 via wrap).
  EXPECT_EQ(idx.max_gap(0), 7);
}

TEST(AppearanceIndex, EvenSpacingGapEqualsSpacing) {
  BroadcastProgram p(1, 12);
  for (SlotCount s : {0, 4, 8}) p.place(0, s, 0);
  const AppearanceIndex idx(p, 1);
  EXPECT_EQ(idx.max_gap(0), 4);
}

TEST(AppearanceIndex, RejectsUnknownPageInProgram) {
  BroadcastProgram p(1, 2);
  p.place(0, 0, 5);
  EXPECT_THROW(AppearanceIndex(p, 3), std::invalid_argument);
}

// ----------------------------------------------------------------- validate

TEST(Validate, PerfectProgramIsValid) {
  // One page, t = 2, broadcast every other slot in a 4-slot cycle.
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(1, 4);
  p.place(0, 0, 0);
  p.place(0, 2, 0);
  const ValidityReport r = validate_program(p, w);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.worst_wait, 2);
  EXPECT_LE(r.worst_lateness, 0);
}

TEST(Validate, MissingPageIsViolation) {
  const Workload w = make_workload({2}, {2});
  BroadcastProgram p(1, 2);
  p.place(0, 0, 0);
  p.place(0, 1, 0);  // page 1 missing
  const ValidityReport r = validate_program(p, w);
  EXPECT_FALSE(r.valid);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].find("page 1"), std::string::npos);
}

TEST(Validate, LateFirstAppearanceIsViolation) {
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(1, 4);
  p.place(0, 2, 0);  // completes at 3 > t = 2, and wrap gap 4 > 2
  const ValidityReport r = validate_program(p, w);
  EXPECT_FALSE(r.valid);
  EXPECT_GE(r.violations.size(), 1u);
}

TEST(Validate, WideGapIsViolation) {
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(1, 6);
  p.place(0, 0, 0);  // completes at 1
  p.place(0, 1, 0);  // completes at 2 — then gap of 5 via wrap
  const ValidityReport r = validate_program(p, w);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.worst_wait, 5);
  EXPECT_EQ(r.worst_lateness, 3);
}

TEST(Validate, DuplicateColumnIsWarningNotViolation) {
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(2, 2);
  p.place(0, 0, 0);
  p.place(1, 0, 0);  // same column on another channel: wasteful
  p.place(0, 1, 0);
  const ValidityReport r = validate_program(p, w);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.warnings.empty());
}

TEST(Validate, MessageCapKeepsTheVerdictAndTheFirstMessages) {
  // Four pages of t = 2 on one 4-slot channel: page 3 never airs, page 2
  // airs once (late first completion and a wide gap), and page 0 airs
  // twice in column 0 of a second channel (a duplicate warning).
  const Workload w = make_workload({2}, {4});
  BroadcastProgram p(2, 4);
  p.place(0, 0, 0);
  p.place(1, 0, 0);
  p.place(0, 1, 1);
  p.place(0, 2, 0);
  p.place(0, 3, 1);
  p.place(1, 2, 2);
  const ValidityReport full = validate_program(p, w);
  ASSERT_GE(full.violations.size(), 3u);
  ASSERT_FALSE(full.warnings.empty());
  for (const std::size_t cap : {0u, 1u, 2u}) {
    const ValidityReport capped = validate_program(p, w, cap);
    EXPECT_EQ(capped.valid, full.valid) << cap;
    EXPECT_EQ(capped.worst_wait, full.worst_wait) << cap;
    EXPECT_EQ(capped.worst_lateness, full.worst_lateness) << cap;
    EXPECT_EQ(capped.violations,
              std::vector<std::string>(full.violations.begin(),
                                       full.violations.begin() + cap))
        << cap;
    EXPECT_EQ(capped.warnings.size(), std::min(cap, full.warnings.size()))
        << cap;
  }
  EXPECT_FALSE(is_valid_program(p, w));
}

TEST(Validate, IsValidProgramConvenience) {
  const Workload w = make_workload({1}, {1});
  BroadcastProgram p(1, 1);
  p.place(0, 0, 0);
  EXPECT_TRUE(is_valid_program(p, w));
}

// ------------------------------------------------------ validate vs oracle

TEST(ForEachInTimeOrder, VisitsOccupiedCellsColumnByColumn) {
  // 20 columns: one full 16-column tile and a partial one.
  BroadcastProgram p(3, 20);
  std::vector<std::pair<SlotCount, PageId>> expected;
  for (SlotCount s = 0; s < 20; ++s)
    for (SlotCount ch = 0; ch < 3; ++ch)
      if ((s + ch) % 4 != 0) {
        const auto page = static_cast<PageId>(ch * 100 + s);
        p.place(ch, s, page);
        expected.emplace_back(s, page);
      }
  std::vector<std::pair<SlotCount, PageId>> seen;
  p.for_each_in_time_order(
      [&](SlotCount slot, PageId page) { seen.emplace_back(slot, page); });
  EXPECT_EQ(seen, expected);
}

void expect_same_report(const ValidityReport& fast, const ValidityReport& ref,
                        int draw) {
  EXPECT_EQ(fast.valid, ref.valid) << "draw " << draw;
  EXPECT_EQ(fast.violations, ref.violations) << "draw " << draw;
  EXPECT_EQ(fast.warnings, ref.warnings) << "draw " << draw;
  EXPECT_EQ(fast.worst_wait, ref.worst_wait) << "draw " << draw;
  EXPECT_EQ(fast.worst_lateness, ref.worst_lateness) << "draw " << draw;
}

// The sweep must report exactly what the index-based validator reports.
// Grids are seeded random: scheduled programs with cells cleared and pages
// copied into other channels of the same column, and raw random fills with
// empty cells, on random ladders — so missing pages, late first
// completions, wide gaps and duplicate columns all occur.
TEST(ValidateOracle, MatchesIndexValidatorOnRandomGrids) {
  Rng rng(2205);
  int empty_cells = 0, duplicates = 0, missing = 0, late_first = 0,
      wide_gap = 0, valid = 0;
  for (int draw = 0; draw < 400; ++draw) {
    std::vector<SlotCount> times{rng.uniform_int(1, 4)};
    std::vector<SlotCount> pages{rng.uniform_int(1, 10)};
    for (std::int64_t g = rng.uniform_int(0, 3); g > 0; --g) {
      times.push_back(times.back() * rng.uniform_int(2, 3));
      pages.push_back(rng.uniform_int(1, 20));
    }
    const Workload w = make_workload(times, pages);
    const auto n = static_cast<PageId>(w.total_pages());
    BroadcastProgram p(1, 1);
    if (draw % 2 == 0) {
      p = make_schedule(Method::kSusc, w,
                        min_channels(w) + rng.uniform_int(0, 2))
              .program;
      for (std::int64_t k = rng.uniform_int(0, 4); k > 0; --k) {
        const SlotCount ch = rng.uniform_int(0, p.channels() - 1);
        const SlotCount s = rng.uniform_int(0, p.cycle_length() - 1);
        if (!p.empty_at(ch, s)) p.clear(ch, s);
      }
      for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
        const SlotCount s = rng.uniform_int(0, p.cycle_length() - 1);
        const SlotCount from = rng.uniform_int(0, p.channels() - 1);
        const SlotCount to = rng.uniform_int(0, p.channels() - 1);
        if (!p.empty_at(from, s) && p.empty_at(to, s))
          p.place(to, s, p.at(from, s));
      }
    } else {
      p = BroadcastProgram(rng.uniform_int(1, 5),
                           rng.uniform_int(1, 2 * w.max_expected_time()));
      const double fill = rng.uniform_real(0.2, 1.0);
      for (SlotCount ch = 0; ch < p.channels(); ++ch)
        for (SlotCount s = 0; s < p.cycle_length(); ++s)
          if (rng.bernoulli(fill))
            p.place(ch, s, static_cast<PageId>(rng.uniform_int(0, n - 1)));
    }
    const ValidityReport fast = validate_program(p, w);
    const ValidityReport ref = validate_program_reference(p, w);
    expect_same_report(fast, ref, draw);

    empty_cells += p.occupied() < p.capacity();
    duplicates += !ref.warnings.empty();
    valid += ref.valid;
    for (const std::string& v : ref.violations) {
      missing += v.find("never appears") != std::string::npos;
      late_first += v.find("first completes") != std::string::npos;
      wide_gap += v.find("appearance gap") != std::string::npos;
    }
  }
  // Every branch of the report was exercised.
  EXPECT_GT(empty_cells, 0);
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(missing, 0);
  EXPECT_GT(late_first, 0);
  EXPECT_GT(wide_gap, 0);
  EXPECT_GT(valid, 0);
}

TEST(ValidateOracle, UnknownPageThrowsLikeTheIndexValidator) {
  const Workload w = make_workload({2}, {2});
  BroadcastProgram p(1, 2);
  p.place(0, 0, 0);
  p.place(0, 1, 2);  // page 2 >= n
  EXPECT_THROW(validate_program(p, w), std::invalid_argument);
  EXPECT_THROW(validate_program_reference(p, w), std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
