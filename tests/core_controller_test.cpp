// Tests for the PRAN controller: demand estimation, re-planning, failover.

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "core/controller.hpp"

namespace pran::core {
namespace {

cluster::ServerSpec server(double gops_per_tti_budget) {
  return cluster::ServerSpec{"s", 1, gops_per_tti_budget * 1e3};
}

std::vector<CellDemand> demands(std::initializer_list<double> values) {
  std::vector<CellDemand> out;
  int id = 0;
  for (double v : values) out.push_back({id++, v, v * 2.0});
  return out;
}

ControllerConfig relaxed() {
  ControllerConfig config;
  config.headroom = 1.0;
  config.demand_safety = 1.0;
  return config;
}

/// Observations after which the EMA (factor kDemandEmaAlpha) has settled
/// on a new cost: less than 4e-5 of a step change remains.
constexpr int kSettleObservations = 200;

TEST(Controller, InitialReplanPlacesAllCells) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.4, 0.4, 0.4}));
  const auto report = ctrl.replan();
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.migrations, 0);
  for (int c = 0; c < 3; ++c) EXPECT_GE(ctrl.server_of(c), 0);
}

TEST(Controller, ObserveMovesEma) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(), {server(1.0)},
                  demands({0.2}));
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.2, 1e-12);
  // Each observation closes kDemandEmaAlpha of the gap to the new cost.
  ctrl.observe(0, 0.6);
  const double first = 0.2 + kDemandEmaAlpha * 0.4;
  EXPECT_NEAR(ctrl.estimated_demand(0), first, 1e-12);
  ctrl.observe(0, 0.6);
  EXPECT_NEAR(ctrl.estimated_demand(0), first + kDemandEmaAlpha * (0.6 - first),
              1e-12);
  for (int i = 0; i < kSettleObservations; ++i) ctrl.observe(0, 0.6);
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.6, 1e-4);
}

TEST(Controller, SafetyFactorInflatesEstimate) {
  auto config = relaxed();
  config.demand_safety = 1.5;
  Controller ctrl(config, std::make_unique<FirstFitPlacer>(), {server(1.0)},
                  demands({0.2}));
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.3, 1e-12);
}

TEST(Controller, MilpReplanConsolidatesWhenLoadDrops) {
  Controller ctrl(relaxed(), std::make_unique<MilpPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.6, 0.6}));
  auto r0 = ctrl.replan();
  ASSERT_TRUE(r0.feasible);
  EXPECT_EQ(r0.active_servers, 2);

  // Load collapses: both cells fit on one server now, and one server
  // outweighs every migration, so consolidation is worthwhile.
  for (int i = 0; i < kSettleObservations; ++i) {
    ctrl.observe(0, 0.2);
    ctrl.observe(1, 0.2);
  }
  const auto r1 = ctrl.replan();
  ASSERT_TRUE(r1.feasible);
  EXPECT_EQ(r1.active_servers, 1);
  EXPECT_EQ(r1.migrations, 1);
  EXPECT_EQ(ctrl.total_migrations(), 1);
}

TEST(Controller, StickyFirstFitPrefersStabilityOverConsolidation) {
  // The online heuristic deliberately leaves both cells in place — the
  // hysteresis half of the migration/consolidation trade-off (ablation E9).
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(true),
                  {server(1.0), server(1.0)}, demands({0.6, 0.6}));
  ASSERT_TRUE(ctrl.replan().feasible);
  for (int i = 0; i < kSettleObservations; ++i) {
    ctrl.observe(0, 0.2);
    ctrl.observe(1, 0.2);
  }
  const auto r = ctrl.replan();
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.migrations, 0);
  EXPECT_EQ(r.active_servers, 2);
}

TEST(Controller, InfeasibleReplanKeepsOldPlacement) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.5}));
  ASSERT_TRUE(ctrl.replan().feasible);
  const int before = ctrl.server_of(0);
  for (int i = 0; i < kSettleObservations; ++i)
    ctrl.observe(0, 5.0);  // impossible demand
  const auto report = ctrl.replan();
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(ctrl.server_of(0), before);
}

TEST(Controller, FailoverRescuesCellsIntoSpareCapacity) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0), server(1.0)},
                  demands({0.5, 0.5, 0.5, 0.5}));
  ASSERT_TRUE(ctrl.replan().feasible);  // two cells per server on 2 servers
  const int victim = ctrl.server_of(0);
  const int outages = ctrl.handle_failure(victim);
  EXPECT_EQ(outages, 0);
  EXPECT_FALSE(ctrl.server_available(victim));
  for (int c = 0; c < 4; ++c) {
    EXPECT_GE(ctrl.server_of(c), 0);
    EXPECT_NE(ctrl.server_of(c), victim);
  }
}

TEST(Controller, FailoverReportsOutagesWhenNoSpare) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.9, 0.9}));
  ASSERT_TRUE(ctrl.replan().feasible);
  const int victim = ctrl.server_of(0);
  const int outages = ctrl.handle_failure(victim);
  EXPECT_EQ(outages, 1);
  EXPECT_EQ(ctrl.server_of(0), -1);
}

TEST(Controller, ReplanAfterFailureAvoidsDeadServer) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.9, 0.9}));
  ASSERT_TRUE(ctrl.replan().feasible);
  const int victim = ctrl.server_of(0);
  ctrl.handle_failure(victim);
  const auto report = ctrl.replan();
  // Only one server left and 1.8 total demand: still infeasible, cell 0
  // stays in outage. Recovery makes it feasible again.
  EXPECT_FALSE(report.feasible);
  ctrl.handle_recovery(victim);
  const auto report2 = ctrl.replan();
  EXPECT_TRUE(report2.feasible);
  for (int c = 0; c < 2; ++c) EXPECT_GE(ctrl.server_of(c), 0);
}

TEST(Controller, RecoveryValidation) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.1}));
  EXPECT_THROW(ctrl.handle_recovery(0), pran::ContractViolation);
  ctrl.handle_failure(0);
  EXPECT_THROW(ctrl.handle_failure(0), pran::ContractViolation);
  ctrl.handle_recovery(0);
  EXPECT_TRUE(ctrl.server_available(0));
}

TEST(Controller, RejectsBadConstructionAndArguments) {
  EXPECT_THROW(Controller(relaxed(), nullptr, {server(1.0)}, demands({0.1})),
               pran::ContractViolation);
  EXPECT_THROW(Controller(relaxed(), std::make_unique<FirstFitPlacer>(), {},
                          demands({0.1})),
               pran::ContractViolation);
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.1}));
  EXPECT_THROW(ctrl.observe(5, 0.1), pran::ContractViolation);
  EXPECT_THROW(ctrl.observe(0, -1.0), pran::ContractViolation);
  EXPECT_THROW(ctrl.server_of(-1), pran::ContractViolation);
}

TEST(Controller, ReportsAccumulate) {
  Controller ctrl(relaxed(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.1}));
  EXPECT_EQ(ctrl.epoch_totals().replans, 0);
  ctrl.replan();
  ctrl.replan();
  EXPECT_EQ(ctrl.epoch_totals().replans, 2);
  EXPECT_EQ(ctrl.epoch_totals().feasible, 2);
}

/// The totals fold every replan in: a shed replan, an infeasible one and
/// the early return with no server left count as the per-epoch log did.
TEST(Controller, EpochTotalsCountInfeasibleAndServerlessReplans) {
  auto config = relaxed();
  config.shed_on_infeasible = true;
  Controller ctrl(config, std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.6, 0.6, 0.3}));
  EXPECT_EQ(ctrl.last_report().active_servers, 0);  // no replan yet

  const EpochReport fits = ctrl.replan();
  ASSERT_TRUE(fits.feasible);
  EXPECT_EQ(fits.active_servers, 2);

  ctrl.set_demand_scale({1.0, 1.0, 3.0});  // 0.6 + 0.6 + 0.9 > 2 servers
  const EpochReport shed = ctrl.replan();
  ASSERT_TRUE(shed.feasible);
  EXPECT_EQ(shed.shed_cells, 1);

  ctrl.set_demand_scale({2.0, 2.0, 4.0});  // every cell outgrows a server
  const EpochReport hopeless = ctrl.replan();
  EXPECT_FALSE(hopeless.feasible);
  EXPECT_EQ(hopeless.shed_cells, 3);

  ctrl.handle_failure(0);
  ctrl.handle_failure(1);
  const EpochReport serverless = ctrl.replan();
  EXPECT_FALSE(serverless.feasible);
  EXPECT_EQ(serverless.shed_cells, 0);

  const EpochTotals& totals = ctrl.epoch_totals();
  EXPECT_EQ(totals.replans, 4);
  EXPECT_EQ(totals.feasible, 2);
  EXPECT_EQ(totals.replans - totals.feasible, 2);  // the infeasible ones
  EXPECT_EQ(totals.shed_cells, 4);
  EXPECT_EQ(totals.active_servers, 4.0);
  EXPECT_EQ(totals.solve_seconds, fits.solve_seconds + shed.solve_seconds);
  EXPECT_FALSE(ctrl.last_report().feasible);
  EXPECT_EQ(ctrl.last_report().active_servers, 0);
}

TEST(Controller, MilpPlacerIntegration) {
  Controller ctrl(relaxed(), std::make_unique<MilpPlacer>(),
                  {server(1.0), server(1.0), server(1.0)},
                  demands({0.5, 0.3, 0.2}));
  const auto report = ctrl.replan();
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.active_servers, 1);  // 1.0 total fits one server exactly
}

}  // namespace
}  // namespace pran::core
