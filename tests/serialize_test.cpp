// Tests for the tcsa v1 text formats (model/serialize).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/pamad.hpp"
#include "core/susc.hpp"
#include "model/serialize.hpp"
#include "util/wire.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

TEST(SerializeWorkload, RoundTrip) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  EXPECT_EQ(workload_from_string(workload_to_string(w)), w);
}

TEST(SerializeWorkload, RoundTripPaperDefaults) {
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape);
    EXPECT_EQ(workload_from_string(workload_to_string(w)), w);
  }
}

TEST(SerializeWorkload, FormatIsStable) {
  const std::string text = workload_to_string(make_workload({2, 4}, {1, 7}));
  EXPECT_EQ(text,
            "tcsa-workload v1\n"
            "groups 2\n"
            "group 2 1\n"
            "group 4 7\n");
}

TEST(SerializeWorkload, CommentsAndBlanksIgnored) {
  const Workload w = workload_from_string(
      "# saved by tooling\n\n"
      "tcsa-workload v1\n"
      "groups 1\n"
      "# the only group\n"
      "group 5 3\n");
  EXPECT_EQ(w.expected_time(0), 5);
  EXPECT_EQ(w.pages_in_group(0), 3);
}

TEST(SerializeWorkload, RejectsBadHeader) {
  EXPECT_THROW(workload_from_string("tcsa-workload v2\ngroups 1\ngroup 2 1\n"),
               std::invalid_argument);
  EXPECT_THROW(workload_from_string(""), std::invalid_argument);
}

TEST(SerializeWorkload, RejectsMalformedLines) {
  EXPECT_THROW(workload_from_string("tcsa-workload v1\ngroups x\n"),
               std::invalid_argument);
  EXPECT_THROW(
      workload_from_string("tcsa-workload v1\ngroups 1\ngroup 2\n"),
      std::invalid_argument);
  EXPECT_THROW(
      workload_from_string("tcsa-workload v1\ngroups 2\ngroup 2 1\n"),
      std::invalid_argument);
}

TEST(SerializeWorkload, RejectsInvariantViolations) {
  // Non-dividing ladder caught with a parse-context message.
  EXPECT_THROW(workload_from_string("tcsa-workload v1\ngroups 2\n"
                                    "group 2 1\ngroup 3 1\n"),
               std::invalid_argument);
}

TEST(SerializeProgram, RoundTripEmptySlots) {
  BroadcastProgram p(2, 3);
  p.place(0, 0, 7);
  p.place(1, 2, 0);
  const BroadcastProgram q = program_from_string(program_to_string(p));
  EXPECT_EQ(p, q);
}

TEST(SerializeProgram, RoundTripRealSchedules) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram susc = schedule_susc(w);
  EXPECT_EQ(program_from_string(program_to_string(susc)), susc);
  const PamadSchedule pamad = schedule_pamad(w, 3);
  EXPECT_EQ(program_from_string(program_to_string(pamad.program)),
            pamad.program);
}

TEST(SerializeProgram, FormatIsStable) {
  BroadcastProgram p(1, 3);
  p.place(0, 1, 4);
  EXPECT_EQ(program_to_string(p),
            "tcsa-program v1\n"
            "shape 1 3\n"
            "row 0 . 4 .\n");
}

TEST(SerializeProgram, RejectsBadShapeAndRows) {
  EXPECT_THROW(program_from_string("tcsa-program v1\nshape 0 3\n"),
               std::invalid_argument);
  EXPECT_THROW(program_from_string("tcsa-program v1\nshape 1 2\nrow 0 .\n"),
               std::invalid_argument);
  EXPECT_THROW(
      program_from_string("tcsa-program v1\nshape 1 2\nrow 1 . .\n"),
      std::invalid_argument);
  EXPECT_THROW(
      program_from_string("tcsa-program v1\nshape 1 2\nrow 0 . x\n"),
      std::invalid_argument);
}

TEST(SerializeProgram, RejectsMissingRows) {
  EXPECT_THROW(program_from_string("tcsa-program v1\nshape 2 2\nrow 0 . .\n"),
               std::invalid_argument);
}

// ------------------------------------------------------- binary encodings
// (the hello and swap frames' workload format — see DESIGN.md §7)

TEST(BinaryWorkload, RoundTrip) {
  for (const GroupSizeShape shape : paper_shapes()) {
    const Workload w = make_paper_workload(shape);
    EXPECT_EQ(workload_from_binary(workload_to_binary(w)), w);
  }
}

TEST(BinaryWorkload, LayoutIsStable) {
  const std::string bytes = workload_to_binary(make_workload({2}, {1}));
  // magic "TCWB" | version 1 | group_count 1 | {t=2, pages=1} as i64 pairs.
  ASSERT_EQ(bytes.size(), 4u + 1u + 4u + 16u);
  EXPECT_EQ(bytes.substr(0, 4), "TCWB");
  EXPECT_EQ(bytes[4], 1);
}

TEST(BinaryWorkload, EveryTruncationPrefixIsRejected) {
  const std::string bytes =
      workload_to_binary(make_workload({2, 4, 8}, {3, 5, 3}));
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(workload_from_binary(bytes.substr(0, len)),
                 std::invalid_argument)
        << "prefix of " << len << " bytes parsed";
}

TEST(BinaryWorkload, RejectsBadMagicVersionTrailingJunkAndHostileCounts) {
  const Workload w = make_workload({2, 4}, {1, 7});
  std::string bytes = workload_to_binary(w);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(workload_from_binary(bad_magic), std::invalid_argument);
  std::string bad_version = bytes;
  bad_version[4] = 9;
  EXPECT_THROW(workload_from_binary(bad_version), std::invalid_argument);
  EXPECT_THROW(workload_from_binary(bytes + "x"), std::invalid_argument);
  // A hostile group count must be rejected before any allocation happens.
  std::string hostile = bytes.substr(0, 5);
  for (int i = 0; i < 4; ++i) hostile.push_back(static_cast<char>(0xff));
  EXPECT_THROW(workload_from_binary(hostile), std::invalid_argument);
  // Hostile page counts: a sum that overflows int64 (it would wrap negative
  // past the PageId check), and a single group that fits PageId but would
  // size a 17 GB page table. Both must be rejected, not thrown as
  // length_error or bad_alloc.
  const auto with_groups =
      [&bytes](std::initializer_list<std::pair<std::int64_t, std::int64_t>>
                   groups) {
        std::string out = bytes.substr(0, 5);
        wire_put_u32(out, static_cast<std::uint32_t>(groups.size()));
        for (const auto& [expected_time, pages] : groups) {
          wire_put_i64(out, expected_time);
          wire_put_i64(out, pages);
        }
        return out;
      };
  EXPECT_THROW(workload_from_binary(with_groups(
                   {{1, 2}, {2, std::numeric_limits<std::int64_t>::max()}})),
               std::invalid_argument);
  EXPECT_THROW(workload_from_binary(with_groups({{1, 4294967295}})),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
