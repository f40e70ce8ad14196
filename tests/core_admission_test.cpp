// Tests for admission control (shedding) and demand forecasting.

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "core/controller.hpp"
#include "core/deployment.hpp"

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

ControllerConfig shedding_config() {
  ControllerConfig config;
  config.headroom = 1.0;
  config.demand_safety = 1.0;
  config.shed_on_infeasible = true;
  return config;
}

/// Observations after which the EMA (factor kDemandEmaAlpha) has settled
/// on a new cost: less than 4e-5 of a step change remains.
constexpr int kSettleObservations = 200;

TEST(Shedding, DropsLargestCellsUntilFeasible) {
  // Total 1.7 on one unit server: shed the 0.8 cell, the rest (0.9) fits.
  Controller ctrl(shedding_config(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.8, 0.5, 0.4}));
  const auto report = ctrl.replan();
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.shed_cells, 1);
  EXPECT_EQ(ctrl.server_of(0), -1);  // the 0.8 cell is in outage
  EXPECT_GE(ctrl.server_of(1), 0);
  EXPECT_GE(ctrl.server_of(2), 0);
}

TEST(Shedding, NoShedWhenFeasible) {
  Controller ctrl(shedding_config(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.4, 0.3}));
  const auto report = ctrl.replan();
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.shed_cells, 0);
}

TEST(Shedding, ShedCellReturnsWhenLoadDrops) {
  Controller ctrl(shedding_config(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.8, 0.6}));
  ASSERT_EQ(ctrl.replan().shed_cells, 1);
  ASSERT_EQ(ctrl.server_of(0), -1);
  for (int i = 0; i < kSettleObservations; ++i) ctrl.observe(0, 0.2);
  const auto report = ctrl.replan();
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.shed_cells, 0);
  EXPECT_GE(ctrl.server_of(0), 0);
}

TEST(Shedding, DisabledKeepsStalePlacement) {
  ControllerConfig config = shedding_config();
  config.shed_on_infeasible = false;
  Controller ctrl(config, std::make_unique<FirstFitPlacer>(), {server(1.0)},
                  demands({0.5}));
  ASSERT_TRUE(ctrl.replan().feasible);
  for (int i = 0; i < kSettleObservations; ++i) ctrl.observe(0, 3.0);
  const auto report = ctrl.replan();
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.shed_cells, 0);
  EXPECT_GE(ctrl.server_of(0), 0);  // stale but still placed
}

TEST(Forecast, ScaleMultipliesEstimates) {
  ControllerConfig config = shedding_config();
  Controller ctrl(config, std::make_unique<FirstFitPlacer>(), {server(1.0)},
                  demands({0.2, 0.3}));
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.2, 1e-12);
  ctrl.set_demand_scale({2.0, 1.0});
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.4, 1e-12);
  EXPECT_NEAR(ctrl.estimated_demand(1), 0.3, 1e-12);
  ctrl.set_demand_scale({});
  EXPECT_NEAR(ctrl.estimated_demand(0), 0.2, 1e-12);
}

TEST(Forecast, ValidatesScaleVector) {
  Controller ctrl(shedding_config(), std::make_unique<FirstFitPlacer>(),
                  {server(1.0)}, demands({0.2}));
  EXPECT_THROW(ctrl.set_demand_scale({1.0, 2.0}), pran::ContractViolation);
  EXPECT_THROW(ctrl.set_demand_scale({0.0}), pran::ContractViolation);
}

TEST(Forecast, ScaledPlanReservesMoreServers) {
  ControllerConfig config = shedding_config();
  Controller ctrl(config, std::make_unique<FirstFitPlacer>(),
                  {server(1.0), server(1.0)}, demands({0.6, 0.6}));
  ASSERT_TRUE(ctrl.replan().feasible);
  // With a 1.5x forecast the two cells no longer share anything — but at
  // 0.6 each they never did; scale instead 0.4 cells that shared.
  Controller ctrl2(config, std::make_unique<FirstFitPlacer>(),
                   {server(1.0), server(1.0)}, demands({0.4, 0.4}));
  ASSERT_TRUE(ctrl2.replan().feasible);
  ASSERT_EQ(ctrl2.reports().back().active_servers, 1);
  ctrl2.set_demand_scale({1.5, 1.5});
  const auto report = ctrl2.replan();
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.active_servers, 2);  // 0.6 + 0.6 no longer fits one
}

TEST(DeploymentForecast, RampWithForecastAvoidsMisses) {
  auto run = [](double horizon) {
    DeploymentConfig config;
    config.num_cells = 6;
    config.num_servers = 4;
    config.server = cluster::ServerSpec{"srv", 4, 150.0};
    config.seed = 13;
    config.start_hour = 5.0;                // pre-ramp
    config.day_compression = 14400.0;       // 4 diurnal hours per second
    config.epoch = 500 * sim::kMillisecond; // 2 diurnal hours per epoch
    config.forecast_horizon_hours = horizon;
    config.controller.headroom = 0.9;
    config.controller.demand_safety = 1.0;
    Deployment d(config);
    d.run_for(1500 * sim::kMillisecond);    // 5am -> 11am ramp
    return d.kpis();
  };
  const auto reactive = run(0.0);
  const auto forecast = run(2.0);
  // Forecasting provisions ahead of the morning ramp; the reactive plan
  // chases it from behind.
  EXPECT_LE(forecast.deadline_misses, reactive.deadline_misses);
  EXPECT_GE(forecast.mean_active_servers, reactive.mean_active_servers);
}

TEST(DeploymentShedding, OverloadShedsInsteadOfCollapsing) {
  auto run = [](bool shed) {
    DeploymentConfig config;
    // Ramp from a feasible 6 am into an over-capacity late morning.
    config.num_cells = 10;
    config.num_servers = 2;
    config.server = cluster::ServerSpec{"srv", 3, 150.0};
    config.peak_prb_utilization = 1.0;
    config.seed = 21;
    config.start_hour = 6.0;
    config.day_compression = 14400.0;
    config.epoch = 100 * sim::kMillisecond;
    config.controller.shed_on_infeasible = shed;
    config.controller.headroom = 0.8;
    config.controller.demand_safety = 1.0;
    Deployment d(config);
    d.run_for(1500 * sim::kMillisecond);
    return d.kpis();
  };
  const auto no_shed = run(false);
  const auto with_shed = run(true);
  // The stale-placement controller reports infeasible epochs during the
  // peak; admission control instead sheds cells into planned outage and
  // keeps the admitted cells' service clean.
  EXPECT_GT(no_shed.infeasible_epochs, 0);
  EXPECT_GT(with_shed.shed_cell_epochs, 0);
  EXPECT_GT(with_shed.outage_cell_ttis, 0u);
  EXPECT_LT(with_shed.miss_ratio, no_shed.miss_ratio);
}

}  // namespace
}  // namespace pran::core
