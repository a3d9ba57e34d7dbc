// Tests for failure injection: the Gilbert–Elliott lossy reception model.
#include <gtest/gtest.h>

#include "core/pamad.hpp"
#include "core/susc.hpp"
#include "model/appearance_index.hpp"
#include "model/validate.hpp"
#include "sim/lossy.hpp"
#include "workload/distributions.hpp"

namespace tcsa {
namespace {

// -------------------------------------------------------------------- lossy

TEST(LossModel, IndependentAndStationary) {
  const LossModel independent = LossModel::independent(0.3);
  EXPECT_DOUBLE_EQ(independent.stationary_loss(), 0.3);

  LossModel bursty;
  bursty.p_good_to_bad = 0.1;
  bursty.p_bad_to_good = 0.4;
  bursty.loss_good = 0.0;
  bursty.loss_bad = 1.0;
  EXPECT_NEAR(bursty.stationary_loss(), 0.2, 1e-12);  // 0.1/(0.1+0.4)
}

TEST(Lossy, ZeroLossMatchesCleanWait) {
  const Workload w = make_workload({2, 4, 8}, {3, 5, 3});
  const BroadcastProgram p = schedule_susc(w);
  const AppearanceIndex idx(p, w.total_pages());
  Rng rng(1);
  const LossModel clean = LossModel::independent(0.0);
  for (double arrival : {0.0, 1.5, 6.2}) {
    const LossyAccess access = lossy_wait(idx, 4, arrival, clean, rng);
    EXPECT_DOUBLE_EQ(access.wait, idx.wait_after(4, arrival));
    EXPECT_EQ(access.attempts, 1);
  }
}

TEST(Lossy, TotalLossHitsAttemptCap) {
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(1, 2);
  p.place(0, 0, 0);
  p.place(0, 1, 0);
  const AppearanceIndex idx(p, 1);
  Rng rng(2);
  const LossModel black_hole = LossModel::independent(1.0);
  const LossyAccess access = lossy_wait(idx, 0, 0.0, black_hole, rng, 7);
  EXPECT_EQ(access.attempts, 7);
  EXPECT_GE(access.wait, 6.0);
}

TEST(Lossy, RetriesWaitWholeSpacings) {
  // Page every 4 slots; with 50% independent loss, the mean wait is the
  // clean mean (2) plus E[extra spacings] = 4 * (p/(1-p)) = 4.
  const Workload w = make_workload({4}, {1});
  BroadcastProgram p(1, 8);
  p.place(0, 0, 0);
  p.place(0, 4, 0);
  const LossySimResult r =
      simulate_lossy(p, w, LossModel::independent(0.5), 40000, 11);
  EXPECT_NEAR(r.avg_wait, 2.0 + 4.0, 0.2);
  EXPECT_NEAR(r.avg_attempts, 2.0, 0.05);
  EXPECT_NEAR(r.loss_rate, 0.5, 0.02);
}

TEST(Lossy, DelayDegradesMonotonicallyWithLoss) {
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 5, 200, 4, 2);
  const PamadSchedule s = schedule_pamad(w, 3);
  double last = -1.0;
  for (const double p : {0.0, 0.1, 0.3, 0.5}) {
    const LossySimResult r =
        simulate_lossy(s.program, w, LossModel::independent(p), 20000, 4);
    EXPECT_GT(r.avg_delay, last) << "loss " << p;
    last = r.avg_delay;
  }
}

TEST(Lossy, BurstsHurtMoreThanIndependentAtEqualRate) {
  // Bursts wipe consecutive appearances of the *same* page, so deadline
  // overruns pile up relative to independent loss of equal average rate.
  const Workload w = make_paper_workload(GroupSizeShape::kUniform, 5, 200, 4, 2);
  const PamadSchedule s = schedule_pamad(w, 4);

  LossModel bursty;
  bursty.p_good_to_bad = 0.05;
  bursty.p_bad_to_good = 0.15;
  bursty.loss_good = 0.0;
  bursty.loss_bad = 1.0;
  const double rate = bursty.stationary_loss();
  const LossySimResult burst_result =
      simulate_lossy(s.program, w, bursty, 30000, 6);
  const LossySimResult indep_result =
      simulate_lossy(s.program, w, LossModel::independent(rate), 30000, 6);
  EXPECT_GT(burst_result.avg_delay, indep_result.avg_delay);
}

TEST(Lossy, ValidProgramStaysAheadUnderMildLoss) {
  // Failure injection against SUSC: with 5% loss, most clients still meet
  // deadlines (the occasional retry costs one spacing).
  const Workload w = make_workload({4, 8, 16}, {4, 6, 8});
  const BroadcastProgram p = schedule_susc(w);
  ASSERT_TRUE(is_valid_program(p, w));
  const LossySimResult r =
      simulate_lossy(p, w, LossModel::independent(0.05), 30000, 8);
  EXPECT_LT(r.miss_rate, 0.07);
  EXPECT_GT(r.miss_rate, 0.0);  // loss does bite occasionally
}

TEST(Lossy, DeterministicInSeed) {
  const Workload w = make_workload({2, 4}, {2, 3});
  const BroadcastProgram p = schedule_susc(w);
  const LossModel model = LossModel::independent(0.2);
  const LossySimResult a = simulate_lossy(p, w, model, 5000, 42);
  const LossySimResult b = simulate_lossy(p, w, model, 5000, 42);
  EXPECT_DOUBLE_EQ(a.avg_wait, b.avg_wait);
  EXPECT_DOUBLE_EQ(a.avg_attempts, b.avg_attempts);
}

TEST(Lossy, RejectsBadParameters) {
  const Workload w = make_workload({2}, {1});
  BroadcastProgram p(1, 2);
  p.place(0, 0, 0);
  LossModel bad;
  bad.loss_bad = 1.5;
  EXPECT_THROW(simulate_lossy(p, w, bad, 10, 1), std::invalid_argument);
  EXPECT_THROW(simulate_lossy(p, w, LossModel{}, 0, 1),
               std::invalid_argument);
  const AppearanceIndex idx(p, 1);
  Rng rng(1);
  EXPECT_THROW(lossy_wait(idx, 0, 0.0, LossModel{}, rng, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcsa
