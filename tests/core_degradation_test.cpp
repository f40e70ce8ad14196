// Degradation-ladder tests: hysteresis, exponential backoff, rung
// semantics, the compression EVM->BLER penalty, controller cell
// quarantine, and the end-to-end ladder-vs-baseline deployment behaviour
// under a fronthaul brownout.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/controller.hpp"
#include "core/degradation.hpp"
#include "core/deployment.hpp"

namespace pran::core {
namespace {

DegradationConfig ladder_config() {
  DegradationConfig config;
  config.enabled = true;
  config.compression_ladder = {1.5, 2.0};
  config.up_epochs = 2;
  config.down_epochs = 4;
  return config;
}

DegradationSignals stressed() {
  DegradationSignals s;
  s.queue_delay_us = 10'000.0;
  return s;
}

DegradationSignals calm() { return DegradationSignals{}; }

DegradationSignals dead_band() {
  DegradationSignals s;
  s.queue_delay_us = 200.0;  // between down (100) and up (300)
  return s;
}

TEST(DegradationLadder, StepsUpOnlyAfterConsecutiveStressedEpochs) {
  DegradationController ladder(ladder_config(), 8);
  EXPECT_FALSE(ladder.update(0, stressed()));
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_TRUE(ladder.update(1, stressed()));
  EXPECT_EQ(ladder.rung(), 1);
  // A calm epoch in between restarts the streak.
  EXPECT_FALSE(ladder.update(2, stressed()));
  EXPECT_FALSE(ladder.update(3, calm()));
  EXPECT_FALSE(ladder.update(4, stressed()));
  EXPECT_EQ(ladder.rung(), 1);
}

TEST(DegradationLadder, AtMostOneRungPerUpdateAndCapped) {
  DegradationController ladder(ladder_config(), 8);
  int previous = 0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    ladder.update(epoch, stressed());
    EXPECT_LE(ladder.rung() - previous, 1);  // never jumps
    previous = ladder.rung();
  }
  EXPECT_EQ(ladder.rung(), ladder.max_rung());
  EXPECT_EQ(ladder.max_rung(), 4);  // 2 compression + shed + quarantine
  // Saturated: more stress moves nothing.
  EXPECT_FALSE(ladder.update(100, stressed()));
}

TEST(DegradationLadder, StepsDownAfterDownHoldCalmEpochs) {
  DegradationController ladder(ladder_config(), 8);
  ladder.update(0, stressed());
  ladder.update(1, stressed());
  ASSERT_EQ(ladder.rung(), 1);
  for (int epoch = 0; epoch < 3; ++epoch)
    EXPECT_FALSE(ladder.update(2 + epoch, calm()));
  EXPECT_TRUE(ladder.update(5, calm()));
  EXPECT_EQ(ladder.rung(), 0);
}

TEST(DegradationLadder, DeadBandHoldsTheRung) {
  DegradationController ladder(ladder_config(), 8);
  ladder.update(0, stressed());
  ladder.update(1, stressed());
  ASSERT_EQ(ladder.rung(), 1);
  for (int epoch = 0; epoch < 50; ++epoch)
    EXPECT_FALSE(ladder.update(2 + epoch, dead_band()));
  EXPECT_EQ(ladder.rung(), 1);
}

TEST(DegradationLadder, BackoffDoublesOnReEscalation) {
  DegradationController ladder(ladder_config(), 8);
  EXPECT_EQ(ladder.current_down_hold(), 4);
  sim::Time t = 0;
  int transitions = 0;  // update() returns true once per rung change
  auto escalate = [&] {
    transitions += ladder.update(t++, stressed());
    transitions += ladder.update(t++, stressed());
  };
  auto recover = [&] {
    while (ladder.rung() > 0) transitions += ladder.update(t++, calm());
  };
  escalate();
  recover();
  EXPECT_EQ(ladder.current_down_hold(), 4);  // backoff charged on re-escalation
  escalate();
  EXPECT_EQ(ladder.current_down_hold(), 8);
  recover();
  escalate();
  EXPECT_EQ(ladder.current_down_hold(), 16);
  EXPECT_EQ(transitions, 5);  // 3 up + 2 down
}

TEST(DegradationLadder, RungSemantics) {
  DegradationController ladder(ladder_config(), 8);
  EXPECT_DOUBLE_EQ(ladder.compression_multiplier(), 1.0);
  EXPECT_FALSE(ladder.shedding());
  EXPECT_STREQ(ladder.rung_name(), "normal");
  auto step_up = [&](int n) {
    for (int i = 0; i < 2 * n; ++i) ladder.update(i, stressed());
  };
  step_up(1);  // rung 1
  EXPECT_DOUBLE_EQ(ladder.compression_multiplier(), 1.5);
  EXPECT_STREQ(ladder.rung_name(), "compress");
  step_up(1);  // rung 2
  EXPECT_DOUBLE_EQ(ladder.compression_multiplier(), 2.0);
  step_up(1);  // rung 3: shed
  EXPECT_STREQ(ladder.rung_name(), "shed");
  EXPECT_TRUE(ladder.shedding());
  EXPECT_FALSE(ladder.quarantining());
  EXPECT_DOUBLE_EQ(ladder.compression_multiplier(), 2.0);  // deepest step
  // kShedFraction (0.25) of 8 cells: cells 6 and 7 (lowest priority).
  ASSERT_EQ(kShedFraction, 0.25);
  EXPECT_FALSE(ladder.cell_shed_eligible(0));
  EXPECT_FALSE(ladder.cell_shed_eligible(5));
  EXPECT_TRUE(ladder.cell_shed_eligible(6));
  EXPECT_TRUE(ladder.cell_shed_eligible(7));
  EXPECT_FALSE(ladder.cell_quarantined(7));  // not on the quarantine rung yet
  step_up(1);  // rung 4: quarantine
  EXPECT_STREQ(ladder.rung_name(), "quarantine");
  EXPECT_TRUE(ladder.quarantining());
  // kQuarantineFraction (0.125) of 8 cells: cell 7 only.
  ASSERT_EQ(kQuarantineFraction, 0.125);
  EXPECT_FALSE(ladder.cell_quarantined(6));
  EXPECT_TRUE(ladder.cell_quarantined(7));
}

DegradationConfig compute_ladder_config() {
  // Full ladder: 1 compression step, 2 effort steps, an MCS cap.
  // Rungs: 0 normal, 1 compress, 2 effort(6), 3 effort(4), 4 mcs-cap,
  // 5 shed, 6 quarantine.
  DegradationConfig config = ladder_config();
  config.compression_ladder = {1.5};
  config.effort_ladder = {6, 4};
  config.mcs_cap = 16;
  return config;
}

TEST(DegradationLadder, EffortAndMcsRungsSlotBetweenCompressionAndShed) {
  DegradationController ladder(compute_ladder_config(), 8);
  EXPECT_EQ(ladder.max_rung(), 6);
  // Kinds in ladder order: cheaper currencies first, coverage last.
  EXPECT_EQ(ladder.rung_kind(0), RungKind::kNormal);
  EXPECT_EQ(ladder.rung_kind(1), RungKind::kCompress);
  EXPECT_EQ(ladder.rung_kind(2), RungKind::kEffort);
  EXPECT_EQ(ladder.rung_kind(3), RungKind::kEffort);
  EXPECT_EQ(ladder.rung_kind(4), RungKind::kMcsCap);
  EXPECT_EQ(ladder.rung_kind(5), RungKind::kShed);
  EXPECT_EQ(ladder.rung_kind(6), RungKind::kQuarantine);
  EXPECT_STREQ(rung_kind_name(RungKind::kEffort), "effort");
  EXPECT_STREQ(rung_kind_name(RungKind::kMcsCap), "mcs-cap");
}

TEST(DegradationLadder, EffortCapAndMcsProgression) {
  DegradationController ladder(compute_ladder_config(), 8);
  auto step_up = [&](sim::Time& t) {
    ladder.update(t++, stressed());
    ladder.update(t++, stressed());
  };
  sim::Time t = 0;
  EXPECT_EQ(ladder.effort_cap(), lte::kMaxTurboIterations);
  step_up(t);  // rung 1: compress — decode effort still untouched
  EXPECT_EQ(ladder.effort_cap(), lte::kMaxTurboIterations);
  EXPECT_FALSE(ladder.mcs_capping());
  step_up(t);  // rung 2: first effort step
  EXPECT_EQ(ladder.effort_cap(), 6);
  EXPECT_STREQ(ladder.rung_name(), "effort");
  step_up(t);  // rung 3: second effort step
  EXPECT_EQ(ladder.effort_cap(), 4);
  EXPECT_FALSE(ladder.mcs_capping());
  step_up(t);  // rung 4: MCS cap — deepest effort cap stays in force
  EXPECT_EQ(ladder.effort_cap(), 4);
  EXPECT_TRUE(ladder.mcs_capping());
  EXPECT_EQ(ladder.mcs_cap(), 16);
  EXPECT_STREQ(ladder.rung_name(), "mcs-cap");
  EXPECT_FALSE(ladder.shedding());
  step_up(t);  // rung 5: shed — compute rungs remain engaged underneath
  EXPECT_TRUE(ladder.shedding());
  EXPECT_EQ(ladder.effort_cap(), 4);
  EXPECT_TRUE(ladder.mcs_capping());
  step_up(t);  // rung 6: quarantine
  EXPECT_TRUE(ladder.quarantining());
  EXPECT_EQ(ladder.rung(), ladder.max_rung());
}

TEST(DegradationLadder, ComputePressureIsAFirstClassSignal) {
  DegradationController ladder(compute_ladder_config(), 8);
  auto pressure = [](double ttis) {
    DegradationSignals s;
    s.compute_pressure = ttis;
    return s;
  };
  // Above kComputeUpTtis (2.0): stressed, trips the ladder alone.
  ASSERT_EQ(kComputeUpTtis, 2.0);
  ASSERT_EQ(kComputeDownTtis, 0.5);
  EXPECT_FALSE(ladder.update(0, pressure(3.0)));
  EXPECT_TRUE(ladder.update(1, pressure(3.0)));
  EXPECT_EQ(ladder.rung(), 1);
  // Dead band [0.5, 2.0]: holds the rung and resets both streaks.
  for (int epoch = 0; epoch < 20; ++epoch)
    EXPECT_FALSE(ladder.update(2 + epoch, pressure(1.0)));
  EXPECT_EQ(ladder.rung(), 1);
  // Below kComputeDownTtis (0.5): calm epochs accumulate to a step-down.
  bool stepped_down = false;
  for (int epoch = 0; epoch < 8; ++epoch)
    stepped_down = ladder.update(30 + epoch, pressure(0.1)) || stepped_down;
  EXPECT_TRUE(stepped_down);
  EXPECT_EQ(ladder.rung(), 0);
}

TEST(DegradationLadder, DwellAccountsTimePerRung) {
  DegradationController ladder(compute_ladder_config(), 8);
  const sim::Time ms = sim::kMillisecond;
  ladder.update(10 * ms, stressed());   // dwell[0] += 10 ms
  ladder.update(20 * ms, stressed());   // dwell[0] += 10 ms, then rung 0 -> 1
  ladder.update(30 * ms, dead_band());  // dwell[1] += 10 ms
  EXPECT_EQ(ladder.dwell(0), 20 * ms);
  EXPECT_EQ(ladder.dwell(1), 10 * ms);
  EXPECT_EQ(ladder.dwell(2), 0);
  EXPECT_THROW(ladder.dwell(ladder.max_rung() + 1), pran::ContractViolation);
}

TEST(DegradationLadder, ValidatesComputeConfig) {
  auto bad = compute_ladder_config();
  bad.effort_ladder = {4, 6};  // not decreasing
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
  bad = compute_ladder_config();
  bad.effort_ladder = {lte::kMaxTurboIterations};  // no cap at all
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
  bad = compute_ladder_config();
  bad.effort_ladder = {6, 0};  // below one pass
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
  bad = compute_ladder_config();
  bad.mcs_cap = 29;  // outside the MCS table
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
}

TEST(DegradationLadder, ValidatesConfig) {
  auto bad = ladder_config();
  bad.compression_ladder = {2.0, 1.5};  // not increasing
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
  bad = ladder_config();
  bad.loss_down = bad.loss_up;  // no hysteresis band
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
  bad = ladder_config();
  bad.up_epochs = 0;
  EXPECT_THROW(DegradationController(bad, 8), pran::ContractViolation);
}

TEST(CompressionPenalty, DeterministicMonotoneWaterfall) {
  EXPECT_DOUBLE_EQ(compression_penalty_bler(1.0), 0.0);
  const double at2 = compression_penalty_bler(2.0);
  const double at3 = compression_penalty_bler(3.0);
  const double at5 = compression_penalty_bler(5.0);
  EXPECT_GT(at2, 0.0);
  EXPECT_LT(at2, at3);
  EXPECT_LT(at3, at5);
  // Mild ladder steps cost little; the model stays a penalty, not a cliff.
  EXPECT_LT(at2, 1e-2);
  EXPECT_LT(at3, 0.1);
  EXPECT_DOUBLE_EQ(at3, compression_penalty_bler(3.0));  // pure function
}

TEST(Controller, CellQuarantineExcludesCellFromPlacement) {
  ControllerConfig config;
  std::vector<cluster::ServerSpec> specs(2);
  std::vector<CellDemand> demand(3);
  for (int c = 0; c < 3; ++c) {
    demand[static_cast<std::size_t>(c)].cell_id = c;
    demand[static_cast<std::size_t>(c)].gops_per_tti = 0.1;
  }
  Controller controller(config, std::make_unique<FirstFitPlacer>(true), specs,
                        demand);
  ASSERT_TRUE(controller.replan().feasible);
  EXPECT_GE(controller.server_of(2), 0);
  controller.set_cell_quarantine({false, false, true});
  EXPECT_TRUE(controller.replan().feasible);
  EXPECT_GE(controller.server_of(0), 0);
  EXPECT_GE(controller.server_of(1), 0);
  EXPECT_EQ(controller.server_of(2), -1);
  controller.set_cell_quarantine({});  // clear
  EXPECT_TRUE(controller.replan().feasible);
  EXPECT_GE(controller.server_of(2), 0);
}

// --- End-to-end: a 30% brownout on a loaded fibre. -------------------------

DeploymentConfig brownout_scenario(bool ladder_on) {
  DeploymentConfig config;
  config.num_cells = 5;
  config.num_servers = 4;
  config.seed = 5;
  // 10 ms epochs: the ladder reacts within half a brownout backlog's worth
  // of growth, so onset transients stay inside the HARQ budget.
  config.epoch = 10 * sim::kMillisecond;
  config.harq_retransmissions = true;
  // 5 cells * 3.69 Mbit/ms on 25G = 74% utilisation: healthy, but a 30%
  // brownout (17.5G effective) pushes offered load to 1.05x capacity.
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
  config.fronthaul_impairments.brownout.mean_duration_seconds = 0.4;
  config.fronthaul_impairments.brownout.capacity_factor = 0.7;
  config.degradation.enabled = ladder_on;
  config.degradation.compression_ladder = {2.0};
  config.degradation.up_epochs = 1;
  config.degradation.down_epochs = 10;
  // The burst train of 5 simultaneous subframes queues ~0.6 ms even on a
  // healthy link, so the delay trigger must sit above that steady state —
  // but close enough that one epoch of brownout growth (~1 ms of backlog)
  // trips it before the backlog eats the 3 ms HARQ budget.
  config.degradation.queue_delay_up_us = 1000.0;
  config.degradation.queue_delay_down_us = 700.0;
  return config;
}

TEST(DegradationDeployment, LadderRidesOutBrownoutBaselineCollapses) {
  auto run = [](bool ladder_on) {
    Deployment d(brownout_scenario(ladder_on));
    d.run_for(3 * sim::kSecond);
    return d.kpis();
  };
  const auto baseline = run(false);
  const auto ladder = run(true);
  // Both runs saw the same brownout timeline (same seed, own substreams).
  EXPECT_GT(baseline.fronthaul_brownouts, 0u);
  EXPECT_EQ(baseline.fronthaul_brownouts, ladder.fronthaul_brownouts);
  // Baseline: the browned-out fibre queues without bound, deadlines die.
  EXPECT_GT(baseline.miss_ratio, 0.01);
  // Ladder: compression restores headroom within an epoch or two.
  EXPECT_LT(ladder.miss_ratio, 0.001);
  EXPECT_GT(ladder.ladder_transitions, 0u);
  EXPECT_LT(ladder.miss_ratio, baseline.miss_ratio);
}

TEST(DegradationDeployment, TransitionsBoundedByHysteresis) {
  Deployment d(brownout_scenario(true));
  d.run_for(3 * sim::kSecond);
  const auto kpis = d.kpis();
  // At most one transition per epoch by construction.
  const auto epochs = static_cast<std::uint64_t>(
      (3 * sim::kSecond) / (10 * sim::kMillisecond));
  EXPECT_LE(kpis.ladder_transitions, epochs);
  ASSERT_NE(d.degradation(), nullptr);
  EXPECT_GE(d.degradation()->current_down_hold(), 10);
}

TEST(DegradationDeployment, RunsAreSeedDeterministic) {
  auto snapshot = [](const DeploymentKpis& k) {
    return std::vector<double>{
        static_cast<double>(k.subframes_processed),
        static_cast<double>(k.deadline_misses),
        static_cast<double>(k.dropped),
        static_cast<double>(k.fronthaul_lost_bursts),
        static_cast<double>(k.fronthaul_late_bursts),
        static_cast<double>(k.fronthaul_brownouts),
        static_cast<double>(k.shed_subframes),
        static_cast<double>(k.compression_tb_failures),
        static_cast<double>(k.quarantined_cell_ttis),
        static_cast<double>(k.ladder_rung),
        static_cast<double>(k.ladder_transitions),
        static_cast<double>(k.harq_retransmissions),
        static_cast<double>(k.lost_transport_blocks),
    };
  };
  auto config = brownout_scenario(true);
  config.fronthaul_impairments.loss.p_good_to_bad = 0.01;
  config.fronthaul_impairments.loss.p_bad_to_good = 0.3;
  config.fronthaul_impairments.loss.loss_bad = 0.5;
  config.fronthaul_impairments.jitter.max_jitter = 50 * sim::kMicrosecond;
  Deployment a(config);
  Deployment b(config);
  a.run_for(2 * sim::kSecond);
  b.run_for(2 * sim::kSecond);
  EXPECT_EQ(snapshot(a.kpis()), snapshot(b.kpis()));
}

TEST(DegradationDeployment, ImpairmentsRequireSharedFronthaul) {
  DeploymentConfig config;
  config.fronthaul_impairments.loss.p_good_to_bad = 0.1;
  EXPECT_THROW(Deployment{config}, pran::ContractViolation);
  DeploymentConfig ladder_only;
  ladder_only.degradation.enabled = true;
  EXPECT_THROW(Deployment{ladder_only}, pran::ContractViolation);
}

}  // namespace
}  // namespace pran::core
