// generation_test.cpp — plan_generation, the one function start-up, the
// hot-swap worker and BM_SwapPath build what goes on air through, tested
// without a server: it must hand back exactly what the scheduler, the
// validator and the seam planner it wraps compute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/api.hpp"
#include "core/channel_bound.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "online/adaptive.hpp"
#include "server/generation.hpp"
#include "util/rng.hpp"

namespace tcsa {
namespace {

Workload random_ladder(Rng& rng) {
  std::vector<SlotCount> times{rng.uniform_int(1, 4)};
  std::vector<SlotCount> pages{rng.uniform_int(1, 12)};
  for (std::int64_t g = rng.uniform_int(0, 4); g > 0; --g) {
    times.push_back(times.back() * rng.uniform_int(2, 3));
    pages.push_back(rng.uniform_int(1, 30));
  }
  return make_workload(times, pages);
}

// At start-up the generation is the scheduler's program, unrotated, as
// generation 1, with the workload's binary cached for the hello.
TEST(PlanGeneration, StartUpAirsTheSchedulersProgramAsGenerationOne) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const SlotCount bound = min_channels(w);
  for (const SlotCount channels : {bound - 2, bound, bound + 1}) {
    const PlannedGeneration chosen =
        plan_generation(w, channels, std::nullopt, nullptr);
    ASSERT_NE(chosen.generation, nullptr);
    EXPECT_EQ(chosen.generation->program,
              choose_schedule(w, channels).program)
        << channels << " channels";
    EXPECT_EQ(chosen.generation->id, 1u);
    EXPECT_EQ(chosen.generation->offset, 0);
    EXPECT_EQ(chosen.generation->start_slot, 0u);
    EXPECT_EQ(chosen.generation->workload, w);
    EXPECT_EQ(chosen.generation->workload_binary, workload_to_binary(w));
    EXPECT_EQ(chosen.seam_lateness, 0);
    EXPECT_EQ(chosen.report.valid, channels >= bound);
  }
  for (const Method method : {Method::kSusc, Method::kMpb,
                              Method::kRoundRobin}) {
    const PlannedGeneration made =
        plan_generation(w, bound, method, nullptr);
    EXPECT_EQ(made.generation->program,
              make_schedule(method, w, bound).program);
    EXPECT_EQ(made.generation->id, 1u);
    EXPECT_EQ(made.generation->offset, 0);
  }
}

// After a generation on air, the rotation and the seam lateness are
// plan_swap_seam's on the scheduler's program, whether that program is
// SUSC's (channels suffice) or PAMAD's (they do not, and it is invalid).
TEST(PlanGeneration, SeamIsPlanSwapSeamsOnRandomSuscAndPamadPairs) {
  Rng rng(3017);
  int pamad = 0;
  int unclean = 0;
  for (int draw = 0; draw < 200; ++draw) {
    const Workload w1 = random_ladder(rng);
    const Workload w2 = rng.uniform_int(0, 3) == 0 ? w1 : random_ladder(rng);
    const std::shared_ptr<Generation> on_air =
        plan_generation(w1, min_channels(w1) + rng.uniform_int(0, 2),
                        std::nullopt, nullptr)
            .generation;
    on_air->offset = rng.uniform_int(0, on_air->program.cycle_length() - 1);
    // Odd draws go to PAMAD: below the next workload's bound.
    const SlotCount bound = min_channels(w2);
    const SlotCount channels =
        draw % 2 == 0 ? bound + rng.uniform_int(0, 2)
                      : rng.uniform_int(1, std::max<SlotCount>(1, bound - 1));
    const PlannedGeneration next =
        plan_generation(w2, channels, std::nullopt, on_air.get());
    const BroadcastProgram expected = choose_schedule(w2, channels).program;
    const SwapPlan plan = plan_swap_seam(w1, on_air->program, on_air->offset,
                                         w2, expected);
    ASSERT_EQ(next.generation->program, expected) << "draw " << draw;
    EXPECT_EQ(next.generation->offset, plan.offset) << "draw " << draw;
    EXPECT_EQ(next.seam_lateness, plan.seam_lateness) << "draw " << draw;
    EXPECT_EQ(next.generation->id, 2u);
    pamad += channels < bound;
    unclean += plan.seam_lateness > 0;
  }
  EXPECT_GT(pamad, 0);
  EXPECT_GT(unclean, 0);
}

// Too few channels: the report is invalid and keeps one message, the
// validator's first violation — the text a refused swap's reply carries
// after its "rescheduled program is invalid" prefix.
TEST(PlanGeneration, InsufficientChannelsReportTheFirstViolation) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const std::shared_ptr<Generation> on_air =
      plan_generation(w, min_channels(w), std::nullopt, nullptr).generation;
  const PlannedGeneration next =
      plan_generation(w, 2, std::nullopt, on_air.get());
  const ValidityReport full = validate_program(next.generation->program, w);
  ASSERT_FALSE(full.valid);
  EXPECT_FALSE(next.report.valid);
  ASSERT_EQ(next.report.violations.size(), 1u);
  EXPECT_EQ(next.report.violations.front(), full.violations.front());
  EXPECT_EQ(next.report.worst_lateness, full.worst_lateness);
  EXPECT_GT(next.report.worst_lateness, 0);
}

}  // namespace
}  // namespace tcsa
