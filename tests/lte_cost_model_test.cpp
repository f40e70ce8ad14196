// Tests for the per-stage processing cost model.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "lte/cost_model.hpp"

namespace pran::lte {
namespace {

const CellConfig kCell{};  // 100 PRB, 4 antennas, 2 layers

TEST(StageCost, TotalAndAddition) {
  StageCost a{}, b{};
  a[Stage::kFft] = 1.0;
  a[Stage::kDecode] = 2.0;
  b[Stage::kDecode] = 3.0;
  const StageCost c = a + b;
  EXPECT_DOUBLE_EQ(c[Stage::kFft], 1.0);
  EXPECT_DOUBLE_EQ(c[Stage::kDecode], 5.0);
  EXPECT_DOUBLE_EQ(c.total(), 6.0);
}

TEST(CostModel, FixedCostIndependentOfLoad) {
  CostModel model;
  const auto fixed = model.fixed_cost(kCell, Direction::kUplink);
  EXPECT_GT(fixed[Stage::kFft], 0.0);
  EXPECT_DOUBLE_EQ(fixed[Stage::kDecode], 0.0);
  // Empty subframe = fixed cost only.
  const auto empty =
      model.subframe_cost(kCell, {}, Direction::kUplink);
  EXPECT_DOUBLE_EQ(empty.total(), fixed.total());
}

TEST(CostModel, FixedCostScalesWithAntennas) {
  CostModel model;
  CellConfig two = kCell;
  two.antennas = 2;
  const double four = model.fixed_cost(kCell, Direction::kUplink).total();
  const double half = model.fixed_cost(two, Direction::kUplink).total();
  EXPECT_NEAR(four / half, 2.0, 1e-9);
}

TEST(CostModel, DecodeDominatesFullLoad) {
  CostModel model;
  const Allocation full{100, 28, 6};
  const std::vector<Allocation> allocs{full};
  const auto cost = model.subframe_cost(kCell, allocs, Direction::kUplink);
  // Turbo decoding is the largest stage at high MCS (the paper's
  // motivating observation for software BBUs).
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    if (stage == Stage::kDecode) continue;
    EXPECT_GE(cost[Stage::kDecode], cost[stage])
        << "decode should dominate " << stage_name(stage);
  }
  // Decode is roughly half the subframe at reference calibration.
  EXPECT_GT(cost[Stage::kDecode] / cost.total(), 0.40);
  EXPECT_LT(cost[Stage::kDecode] / cost.total(), 0.65);
}

TEST(CostModel, ReferenceCalibrationMagnitude) {
  CostModel model;
  const double gops = model.peak_cost(kCell, Direction::kUplink, 6).total();
  // Fully loaded 20 MHz 64-QAM subframe ≈ 0.3 Gop.
  EXPECT_GT(gops, 0.2);
  EXPECT_LT(gops, 0.45);
}

TEST(CostModel, CostMonotoneInPrbs) {
  CostModel model;
  double prev = 0.0;
  for (int prbs : {10, 25, 50, 75, 100}) {
    const Allocation a{prbs, 20, 6};
    const std::vector<Allocation> allocs{a};
    const double total =
        model.subframe_cost(kCell, allocs, Direction::kUplink).total();
    EXPECT_GT(total, prev);
    prev = total;
  }
}

TEST(CostModel, CostMonotoneInMcs) {
  CostModel model;
  double prev = 0.0;
  for (int mcs = 0; mcs <= 28; mcs += 4) {
    const Allocation a{50, mcs, 6};
    const std::vector<Allocation> allocs{a};
    const double total =
        model.subframe_cost(kCell, allocs, Direction::kUplink).total();
    EXPECT_GE(total, prev) << "MCS " << mcs;
    prev = total;
  }
}

TEST(CostModel, DecodeScalesWithIterations) {
  CostModel model;
  const Allocation a4{50, 20, 4};
  const Allocation a8{50, 20, 8};
  const double d4 = model.allocation_cost(kCell, a4, Direction::kUplink)[Stage::kDecode];
  const double d8 = model.allocation_cost(kCell, a8, Direction::kUplink)[Stage::kDecode];
  EXPECT_NEAR(d8 / d4, 2.0, 1e-9);
}

TEST(CostModel, DownlinkCheaperThanUplink) {
  CostModel model;
  const Allocation a{80, 24, 6};
  const std::vector<Allocation> allocs{a};
  const double ul =
      model.subframe_cost(kCell, allocs, Direction::kUplink).total();
  const double dl =
      model.subframe_cost(kCell, allocs, Direction::kDownlink).total();
  EXPECT_LT(dl, ul);
  // No equalisation stage on the transmit path.
  EXPECT_DOUBLE_EQ(
      model.subframe_cost(kCell, allocs,
                          Direction::kDownlink)[Stage::kEqualization],
      0.0);
}

TEST(CostModel, RejectsOversubscription) {
  CostModel model;
  const Allocation a{60, 10, 6};
  const std::vector<Allocation> allocs{a, a};  // 120 > 100 PRBs
  EXPECT_THROW(model.subframe_cost(kCell, allocs, Direction::kUplink),
               ContractViolation);
  EXPECT_THROW(model.allocation_cost(kCell, Allocation{101, 10, 6},
                                     Direction::kUplink),
               ContractViolation);
}

TEST(CostModel, ZeroPrbAllocationIsFree) {
  CostModel model;
  const auto cost =
      model.allocation_cost(kCell, Allocation{0, 28, 6}, Direction::kUplink);
  EXPECT_DOUBLE_EQ(cost.total(), 0.0);
}

TEST(CostModel, IterationConstantsBoundDefaults) {
  // The decoder effort currency is bounded by the shared constants; the
  // default (worst-case) allocation sits at the top of the band so the
  // cost model never undercharges an uncapped transport block.
  EXPECT_LT(kMinTurboIterations, kMaxTurboIterations);
  EXPECT_GE(kMinTurboIterations, 1);
  EXPECT_EQ(Allocation{}.turbo_iterations, kMaxTurboIterations);
}

TEST(EffortCap, CapsOnlyAboveTheCap) {
  std::vector<Allocation> allocs{
      {20, 10, kMaxTurboIterations},   // capped
      {20, 10, 5},                     // at cap — untouched
      {20, 10, kMinTurboIterations},   // below cap — untouched
      {0, 28, kMaxTurboIterations},    // empty — ignored entirely
  };
  const EffortCapOutcome out = apply_effort_cap(allocs, 5);
  EXPECT_EQ(out.capped_tbs, 1);
  EXPECT_EQ(out.needed_iterations,
            kMaxTurboIterations + 5 + kMinTurboIterations);
  EXPECT_EQ(out.realized_iterations, 5 + 5 + kMinTurboIterations);
  EXPECT_EQ(allocs[0].turbo_iterations, 5);
  EXPECT_EQ(allocs[1].turbo_iterations, 5);
  EXPECT_EQ(allocs[2].turbo_iterations, kMinTurboIterations);
  // Zero-PRB allocations carry no decode work; the cap must not rewrite
  // them or count them in either currency.
  EXPECT_EQ(allocs[3].turbo_iterations, kMaxTurboIterations);
}

TEST(EffortCap, NoOpWhenCapAtCeiling) {
  std::vector<Allocation> allocs{{30, 16, 7}, {30, 16, 3}};
  const EffortCapOutcome out = apply_effort_cap(allocs, kMaxTurboIterations);
  EXPECT_EQ(out.capped_tbs, 0);
  EXPECT_EQ(out.needed_iterations, out.realized_iterations);
}

TEST(EffortCap, CapReducesChargedDecodeCost) {
  CostModel model;
  std::vector<Allocation> allocs{{50, 20, kMaxTurboIterations}};
  const double before =
      model.subframe_cost(kCell, allocs, Direction::kUplink)[Stage::kDecode];
  apply_effort_cap(allocs, kMinTurboIterations);
  const double after =
      model.subframe_cost(kCell, allocs, Direction::kUplink)[Stage::kDecode];
  // Decode gops scale linearly in realized iterations: charging the cap
  // rather than the demand is what makes the backpressure loop honest.
  EXPECT_NEAR(after / before,
              static_cast<double>(kMinTurboIterations) /
                  static_cast<double>(kMaxTurboIterations),
              1e-9);
}

TEST(EffortCap, RejectsNonPositiveCap) {
  std::vector<Allocation> allocs{{10, 10, 6}};
  EXPECT_THROW(apply_effort_cap(allocs, 0), ContractViolation);
}

TEST(CostModel, PeakMeetsHarqBudgetOnDefaultCore) {
  CostModel model;
  const auto peak = model.peak_cost(kCell, Direction::kUplink);
  // Worst case must fit inside the 3 ms HARQ budget on a 150 GOPS core —
  // otherwise no placement can ever be deadline-feasible.
  const double seconds_on_core = peak.total() / 150.0;
  EXPECT_LT(seconds_on_core, 3e-3);
}

TEST(StageNames, AreStable) {
  EXPECT_STREQ(stage_name(Stage::kFft), "fft");
  EXPECT_STREQ(stage_name(Stage::kDecode), "decode");
  EXPECT_STREQ(stage_name(Stage::kMac), "mac");
}

}  // namespace
}  // namespace pran::lte
