// Full-stack integration: every optional subsystem enabled at once.
//
// Shared compressed fronthaul + HARQ feedback + demand forecasting +
// admission control + MILP placement + custom pipeline stage + a mid-run
// server failure — the kitchen sink. The test asserts the invariants
// that must survive any feature interaction.

#include <gtest/gtest.h>

#include "core/deployment.hpp"

namespace pran::core {
namespace {

DeploymentConfig kitchen_sink() {
  DeploymentConfig config;
  config.num_cells = 6;
  config.num_servers = 4;
  config.seed = 2468;
  config.start_hour = 9.0;
  config.day_compression = 1800.0;
  config.epoch = 250 * sim::kMillisecond;

  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  config.fronthaul_compression = 2.0;

  config.harq_retransmissions = true;
  config.forecast_horizon_hours = 0.5;
  config.controller.shed_on_infeasible = true;
  config.placer = DeploymentConfig::PlacerKind::kMilp;

  auto pipeline = Pipeline::standard_uplink();
  pipeline.append(stages::wideband_sounding());
  config.pipeline = pipeline;

  config.server.max_job_parallelism = 8;
  return config;
}

TEST(FullStack, EverythingEnabledRunsCleanly) {
  Deployment d(kitchen_sink());
  d.run_for(600 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  ASSERT_GE(victim, 0);
  d.fail_server_at(d.now() + 50 * sim::kMillisecond, victim);
  d.restore_server_at(d.now() + 300 * sim::kMillisecond, victim);
  d.run_for(600 * sim::kMillisecond);

  const auto kpis = d.kpis();
  // Throughput: every cell processed nearly every TTI (modulo failover).
  EXPECT_GT(kpis.subframes_processed, 6u * 1100u);
  // The moderately loaded, compressed fronthaul must not cost deadlines.
  EXPECT_LT(kpis.miss_ratio, 0.01);
  // Failover rescued everyone (spare capacity exists).
  EXPECT_EQ(kpis.failover_outage_cells, 0);
  // Energy accounting is live and sane.
  EXPECT_GT(kpis.energy_joules, 0.0);
  const double upper_bound = 4 * 250.0 * sim::to_seconds(d.now());
  EXPECT_LT(kpis.energy_joules, upper_bound);
  // Fronthaul carried every cell-subframe burst: the deployment counts
  // each one offered, and each one lost.
  ASSERT_NE(d.fronthaul_link(), nullptr);
  EXPECT_GT(d.metrics().counter_value("fronthaul.bursts") -
                kpis.fronthaul_lost_bursts,
            6u * 1100u);
}

TEST(FullStack, DeterministicAcrossRuns) {
  auto run = [] {
    Deployment d(kitchen_sink());
    d.run_for(500 * sim::kMillisecond);
    const auto kpis = d.kpis();
    return std::make_tuple(kpis.subframes_processed, kpis.deadline_misses,
                           kpis.migrations, kpis.harq_retransmissions);
  };
  EXPECT_EQ(run(), run());
}

TEST(FullStack, TraceRecordsControllerAndFailures) {
  Deployment d(kitchen_sink());
  d.run_for(300 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  d.fail_server_at(d.now(), victim);
  d.run_for(100 * sim::kMillisecond);
  // The initial plan plus the epoch at 250 ms.
  EXPECT_EQ(d.controller().epoch_totals().replans, 2);
  EXPECT_EQ(d.kpis().faults_injected, 1);
}

}  // namespace
}  // namespace pran::core
