// Randomised property tests: hundreds of generated workloads driven through
// the full pipeline, checking the invariants the hand-written tests pin on
// specific instances. Seeds are fixed, so failures reproduce exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "core/channel_bound.hpp"
#include "core/delay_model.hpp"
#include "core/mpb.hpp"
#include "core/opt.hpp"
#include "core/pamad.hpp"
#include "core/susc.hpp"
#include "core/theory.hpp"
#include "model/appearance_index.hpp"
#include "model/serialize.hpp"
#include "model/validate.hpp"
#include "sim/broadcast_sim.hpp"
#include "util/rng.hpp"
#include "workload/rearrange.hpp"

namespace tcsa {
namespace {

/// Random ladder workload: h in [1,6], t1 in [1,6], per-step ratio in
/// {2,3,4} (mixed ratios allowed — the divisibility generalisation),
/// group sizes in [1, 40].
Workload random_workload(Rng& rng) {
  const auto h = static_cast<GroupId>(rng.uniform_int(1, 6));
  std::vector<GroupSpec> groups;
  SlotCount t = rng.uniform_int(1, 6);
  for (GroupId g = 0; g < h; ++g) {
    groups.push_back(GroupSpec{t, rng.uniform_int(1, 40)});
    t *= rng.uniform_int(2, 4);
  }
  return Workload(std::move(groups));
}

class FuzzCase : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCase, SuscValidAtTheBound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int i = 0; i < 20; ++i) {
    const Workload w = random_workload(rng);
    const BroadcastProgram p = schedule_susc(w);
    const ValidityReport report = validate_program(p, w);
    EXPECT_TRUE(report.valid)
        << w.describe() << " seed-case " << GetParam() << "/" << i
        << (report.violations.empty() ? ""
                                      : (": " + report.violations.front()));
  }
}

TEST_P(FuzzCase, PamadStructureHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  for (int i = 0; i < 15; ++i) {
    const Workload w = random_workload(rng);
    const SlotCount bound = min_channels(w);
    const SlotCount channels = rng.uniform_int(1, bound);
    const PamadSchedule s = schedule_pamad(w, channels);

    // Copy counts match the frequency vector exactly.
    EXPECT_EQ(s.program.occupied(), total_slots(w, s.frequencies.S));
    const AppearanceIndex idx(s.program, w.total_pages());
    for (PageId page = 0; page < w.total_pages(); ++page) {
      const GroupId g = w.group_of(page);
      EXPECT_EQ(idx.count(page),
                s.frequencies.S[static_cast<std::size_t>(g)])
          << w.describe() << " page " << page << " channels " << channels;
    }
    // Frequencies non-increasing, last group once.
    for (std::size_t g = 1; g < s.frequencies.S.size(); ++g)
      EXPECT_LE(s.frequencies.S[g], s.frequencies.S[g - 1]);
    EXPECT_EQ(s.frequencies.S.back(), 1);
  }
}

TEST_P(FuzzCase, MethodOrderingHolds) {
  // continuous bound <= unconstrained OPT <= ladder OPT <= PAMAD,
  // and PAMAD never materially worse than m-PB.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 3);
  for (int i = 0; i < 8; ++i) {
    const Workload w = random_workload(rng);
    const SlotCount channels = rng.uniform_int(1, min_channels(w));
    const double continuous = continuous_delay_lower_bound(w, channels);
    const double free_opt =
        opt_frequencies_unconstrained(w, channels).predicted_delay;
    const double ladder_opt = opt_frequencies(w, channels).predicted_delay;
    const double pamad = pamad_frequencies(w, channels).predicted_delay;
    const double mpb = schedule_mpb(w, channels).predicted_delay;

    const std::string context = w.describe() + " channels=" +
                                std::to_string(channels);
    EXPECT_LE(continuous, free_opt + 1e-9) << context;
    EXPECT_LE(free_opt, ladder_opt + 1e-9) << context;
    EXPECT_LE(ladder_opt, pamad + 1e-9) << context;
    EXPECT_LE(pamad, mpb * 1.05 + 0.05) << context;
  }
}

TEST_P(FuzzCase, SimulationTracksModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 4);
  for (int i = 0; i < 6; ++i) {
    const Workload w = random_workload(rng);
    const SlotCount channels = rng.uniform_int(1, min_channels(w));
    const PamadSchedule s = schedule_pamad(w, channels);
    SimConfig sim;
    sim.requests.count = 20000;
    sim.seed = rng();
    const double measured = simulate_requests(s.program, w, sim).avg_delay;
    const double predicted = s.frequencies.predicted_delay;
    // Placement granularity on tiny cycles can stretch gaps well past the
    // even-spacing ideal; the bound here is deliberately loose — it exists
    // to catch wild disagreement (wrong cycle, off-by-one waits), not to
    // re-verify the model (delay_model_test does that tightly).
    EXPECT_NEAR(measured, predicted,
                std::max(2.0, predicted * 0.75))
        << w.describe() << " channels=" << channels;
  }
}

TEST_P(FuzzCase, SerializationRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2971 + 5);
  for (int i = 0; i < 10; ++i) {
    const Workload w = random_workload(rng);
    EXPECT_EQ(workload_from_string(workload_to_string(w)), w);
    const SlotCount channels = rng.uniform_int(1, min_channels(w));
    const PamadSchedule s = schedule_pamad(w, channels);
    EXPECT_EQ(program_from_string(program_to_string(s.program)), s.program);
  }
}

TEST_P(FuzzCase, RearrangementInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 6);
  for (int i = 0; i < 10; ++i) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 60));
    std::vector<SlotCount> requested(count);
    for (auto& t : requested) t = rng.uniform_int(1, 500);
    const SlotCount c = rng.uniform_int(2, 4);
    const RearrangedWorkload plan = rearrange_expected_times(requested, c);

    EXPECT_EQ(plan.workload.total_pages(),
              static_cast<SlotCount>(count));
    for (std::size_t j = 0; j < count; ++j) {
      // Never rounded up; mapped page carries the assigned time.
      EXPECT_LE(plan.assigned_time[j], requested[j]);
      EXPECT_EQ(plan.workload.expected_time_of(plan.page_of_input[j]),
                plan.assigned_time[j]);
      // On the ladder anchored at the minimum requested time.
      const SlotCount t1 =
          *std::min_element(requested.begin(), requested.end());
      SlotCount v = plan.assigned_time[j];
      while (v > t1 && v % c == 0) v /= c;
      EXPECT_EQ(v, t1) << "assigned time off the ladder";
      // Rounding down by less than a full ladder step.
      EXPECT_GT(plan.assigned_time[j] * c, requested[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCase, ::testing::Range(0, 10));

}  // namespace
}  // namespace tcsa
