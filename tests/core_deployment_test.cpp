// Integration tests: full deployments on the event engine.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "core/deployment.hpp"
#include "core/pooling.hpp"

namespace pran::core {
namespace {

DeploymentConfig small_config() {
  DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 3;
  config.seed = 5;
  config.start_hour = 12.0;
  config.epoch = 200 * sim::kMillisecond;
  return config;
}

TEST(Deployment, ProcessesEveryCellEveryTti) {
  Deployment d(small_config());
  d.run_for(300 * sim::kMillisecond);
  const auto kpis = d.kpis();
  // 4 cells * ~300 TTIs; jobs released ~1 ms after their TTI, so allow
  // boundary slack.
  EXPECT_GT(kpis.subframes_processed, 4u * 290u);
  EXPECT_LE(kpis.subframes_processed, 4u * 301u);
}

TEST(Deployment, MeetsDeadlinesAtModerateLoad) {
  Deployment d(small_config());
  d.run_for(2 * sim::kSecond);
  const auto kpis = d.kpis();
  EXPECT_EQ(kpis.deadline_misses, 0u);
  EXPECT_EQ(kpis.dropped, 0u);
  EXPECT_DOUBLE_EQ(kpis.miss_ratio, 0.0);
}

TEST(Deployment, IsDeterministicForSameSeed) {
  auto run = [] {
    Deployment d(small_config());
    d.run_for(500 * sim::kMillisecond);
    return d.kpis();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.subframes_processed, b.subframes_processed);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(Deployment, HourAdvancesWithCompression) {
  auto config = small_config();
  config.start_hour = 6.0;
  config.day_compression = 7200;  // 2 hours per second
  Deployment d(config);
  EXPECT_DOUBLE_EQ(d.hour_at(0), 6.0);
  EXPECT_DOUBLE_EQ(d.hour_at(sim::kSecond), 8.0);
}

TEST(Deployment, FailoverKeepsCellsAlive) {
  auto config = small_config();
  config.num_servers = 4;
  Deployment d(config);
  d.run_for(200 * sim::kMillisecond);
  // Fail whichever server hosts cell 0.
  const int victim = d.controller().server_of(0);
  ASSERT_GE(victim, 0);
  d.fail_server_at(d.now() + 50 * sim::kMillisecond, victim);
  d.run_for(500 * sim::kMillisecond);
  const auto kpis = d.kpis();
  EXPECT_EQ(kpis.failover_outage_cells, 0);
  // Cell 0 lives elsewhere and keeps processing.
  EXPECT_NE(d.controller().server_of(0), victim);
  EXPECT_GT(kpis.subframes_processed, 0u);
  EXPECT_EQ(kpis.faults_injected, 1);
  // The initial plan plus the epochs at 200, 400 and 600 ms.
  EXPECT_EQ(d.controller().epoch_totals().replans, 4);
}

TEST(Deployment, RestoreReturnsServerToPool) {
  auto config = small_config();
  Deployment d(config);
  d.run_for(100 * sim::kMillisecond);
  const int victim = d.controller().server_of(0);
  d.fail_server_at(d.now() + 10 * sim::kMillisecond, victim);
  d.restore_server_at(d.now() + 100 * sim::kMillisecond, victim);
  d.run_for(400 * sim::kMillisecond);
  EXPECT_TRUE(d.controller().server_available(victim));
  EXPECT_FALSE(d.executor().is_failed(victim));
}

TEST(Deployment, CustomPipelineRaisesLoad) {
  auto heavy_config = small_config();
  auto pipeline = Pipeline::standard_uplink();
  pipeline.append(stages::interference_cancellation(2.0));
  heavy_config.pipeline = pipeline;

  Deployment plain(small_config());
  Deployment heavy(heavy_config);
  plain.run_for(500 * sim::kMillisecond);
  heavy.run_for(500 * sim::kMillisecond);

  // The programmed-in stage increases per-cell demand estimates.
  double plain_demand = 0.0, heavy_demand = 0.0;
  for (int c = 0; c < 4; ++c) {
    plain_demand += plain.controller().estimated_demand(c);
    heavy_demand += heavy.controller().estimated_demand(c);
  }
  EXPECT_GT(heavy_demand, plain_demand * 1.05);
}

TEST(Deployment, MilpPlacerWorksEndToEnd) {
  auto config = small_config();
  config.placer = DeploymentConfig::PlacerKind::kMilp;
  config.epoch = 250 * sim::kMillisecond;
  Deployment d(config);
  d.run_for(sim::kSecond);
  const auto kpis = d.kpis();
  EXPECT_EQ(kpis.deadline_misses, 0u);
  EXPECT_GT(kpis.mean_active_servers, 0.0);
}

TEST(Deployment, StaticPeakUsesMoreServers) {
  auto pooled_config = small_config();
  pooled_config.num_servers = 4;
  auto static_config = pooled_config;
  static_config.placer = DeploymentConfig::PlacerKind::kStaticPeak;

  Deployment pooled(pooled_config);
  Deployment fixed(static_config);
  pooled.run_for(sim::kSecond);
  fixed.run_for(sim::kSecond);
  EXPECT_GE(fixed.kpis().mean_active_servers,
            pooled.kpis().mean_active_servers);
}

TEST(Deployment, RejectsImpossibleConfigurations) {
  auto config = small_config();
  config.num_cells = 40;
  config.num_servers = 1;
  config.server.cores = 1;
  EXPECT_THROW(Deployment{config}, pran::ContractViolation);
}

// --- Compute-aware overload control. ---------------------------------------

TEST(OverloadControl, EffortCapInterpolatesWithPressure) {
  // The loop's constants: no cap up to a 0.5-TTI backlog, the decoder's
  // floor from 2 TTIs on.
  ASSERT_EQ(kMaxEffort, 8);
  ASSERT_EQ(kMinEffort, 2);
  ASSERT_EQ(kPressureOnsetTtis, 0.5);
  ASSERT_EQ(kPressureFullTtis, 2.0);
  EXPECT_EQ(effort_cap_for_pressure(0.0), 8);
  EXPECT_EQ(effort_cap_for_pressure(0.5), 8);   // at onset
  EXPECT_EQ(effort_cap_for_pressure(1.25), 5);  // midpoint
  EXPECT_EQ(effort_cap_for_pressure(2.0), 2);   // at full
  EXPECT_EQ(effort_cap_for_pressure(50.0), 2);  // saturated
  // Fractional caps round DOWN: under pressure, grant the conservative
  // budget.
  EXPECT_EQ(effort_cap_for_pressure(1.0), 6);
  EXPECT_EQ(effort_cap_for_pressure(1.1), 5);
}

DeploymentConfig overload_scenario(bool overload_on) {
  DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 2;
  // Lean pool: with the default 8 cores a 2-job/TTI load never saturates
  // the cores, so no backlog (and thus no compute pressure) can form —
  // jobs either start immediately or fail the solo-execution admission
  // bound outright. Four cores per server make the pool queue under a
  // moderate brownout while individual subframes stay solo-feasible.
  config.server.cores = 4;
  config.seed = 5;
  config.epoch = 500 * sim::kMillisecond;
  config.harq_retransmissions = true;
  config.overload.enabled = overload_on;
  return config;
}

TEST(OverloadControl, BrownedOutPoolProducesBoundedOutagesNotMissStorms) {
  // A ~3x compute brownout on every server for 600 ms: offered PHY work
  // exceeds the pool, but most individual subframes remain solo-feasible,
  // so backlog builds. The overload loop must abandon infeasible
  // subframes as computational outages (bounded), cap decode effort on
  // the ones it keeps, and recover once the pool heals. (A much deeper
  // brownout would fail every job at the solo-execution admission bound
  // before backlog — and thus effort pressure — could ever build.)
  auto run = [](bool overload_on) {
    Deployment d(overload_scenario(overload_on));
    faults::FaultEvent slow;
    slow.kind = faults::FaultKind::kDegrade;
    slow.at = 500 * sim::kMillisecond;
    slow.duration = 600 * sim::kMillisecond;
    slow.servers = {0, 1};
    slow.degrade_factor = 0.3;
    d.injector().schedule(slow);
    d.run_for(2 * sim::kSecond);
    return d.kpis();
  };
  const auto baseline = run(false);
  const auto guarded = run(true);
  // Without the loop there are no outages by definition — the overload
  // expresses itself purely as deadline misses.
  EXPECT_EQ(baseline.compute_outage_jobs, 0u);
  EXPECT_GT(baseline.deadline_misses, 0u);
  // With the loop: a nonzero but bounded computational-outage rate...
  EXPECT_GT(guarded.compute_outage_jobs, 0u);
  // (a 10x slowdown over 30% of the run, compounded by HARQ retx of the
  // abandoned blocks, legitimately abandons roughly half the offered jobs)
  EXPECT_GT(guarded.compute_outage_ratio, 0.0);
  EXPECT_LT(guarded.compute_outage_ratio, 0.7);
  EXPECT_GE(guarded.compute_outage_tbs, guarded.compute_outage_jobs);
  // ...effort caps engaged (realized spend honestly below demand)...
  EXPECT_GT(guarded.effort_capped_tbs, 0u);
  EXPECT_LT(guarded.decode_iterations_realized,
            guarded.decode_iterations_needed);
  EXPECT_GT(guarded.peak_compute_pressure, 0.0);
  // ...and fewer deadline misses than the unguarded pool: abandoning
  // infeasible work protects the jobs that can still make it.
  EXPECT_LT(guarded.deadline_misses, baseline.deadline_misses);
  // Goodput accounting stays coherent.
  EXPECT_GT(guarded.offered_tb_bits, 0.0);
  EXPECT_LE(guarded.delivered_tb_bits, guarded.offered_tb_bits);
}

/// The run's `deployment.job_service_us` histogram (empty if never seen).
telemetry::MetricsSnapshot::HistogramValue job_service(const Deployment& d) {
  for (const auto& h : d.metrics().snapshot().histograms)
    if (h.name == "deployment.job_service_us") return h;
  return {};
}

TEST(OverloadControl, ServiceHistogramTimesOnlyJobsThatRan) {
  // A crash drops the jobs on server 0, and the brownout makes the loop
  // abandon others as outages: neither kind ran, so neither has a
  // service time.
  Deployment d(overload_scenario(true));
  d.fail_server_at(300 * sim::kMillisecond, 0);
  d.restore_server_at(400 * sim::kMillisecond, 0);
  faults::FaultEvent slow;
  slow.kind = faults::FaultKind::kDegrade;
  slow.at = 500 * sim::kMillisecond;
  slow.duration = 600 * sim::kMillisecond;
  slow.servers = {0, 1};
  slow.degrade_factor = 0.3;
  d.injector().schedule(slow);
  d.run_for(2 * sim::kSecond);

  const DeploymentKpis kpis = d.kpis();
  ASSERT_GT(kpis.dropped, 0u);
  ASSERT_GT(kpis.compute_outage_jobs, 0u);
  const auto service = job_service(d);
  EXPECT_EQ(service.total(), kpis.subframes_processed);
  EXPECT_EQ(service.underflow, 0u);
  EXPECT_GT(service.sum(), 0.0);
  EXPECT_EQ(d.metrics().counter_value("deployment.subframes") -
                service.total(),
            kpis.dropped + kpis.compute_outage_jobs);
}

TEST(OverloadControl, IdleLoopChangesNothing) {
  // At moderate load the backlog never crosses the onset, so an enabled
  // loop must be a strict no-op: same outcomes, full effort granted.
  auto run = [](bool overload_on) {
    auto config = small_config();
    config.overload.enabled = overload_on;
    Deployment d(config);
    d.run_for(sim::kSecond);
    return d.kpis();
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(on.subframes_processed, off.subframes_processed);
  EXPECT_EQ(on.deadline_misses, off.deadline_misses);
  EXPECT_EQ(on.compute_outage_jobs, 0u);
  EXPECT_EQ(on.effort_capped_tbs, 0u);
  EXPECT_EQ(on.decode_iterations_realized, on.decode_iterations_needed);
}

TEST(OverloadControl, RunsAreSeedDeterministic) {
  auto run = [] {
    Deployment d(overload_scenario(true));
    faults::FaultEvent slow;
    slow.kind = faults::FaultKind::kDegrade;
    slow.at = 300 * sim::kMillisecond;
    slow.duration = 400 * sim::kMillisecond;
    slow.servers = {0, 1};
    slow.degrade_factor = 0.1;
    d.injector().schedule(slow);
    d.run_for(1500 * sim::kMillisecond);
    const auto k = d.kpis();
    return std::vector<double>{
        static_cast<double>(k.subframes_processed),
        static_cast<double>(k.deadline_misses),
        static_cast<double>(k.compute_outage_jobs),
        static_cast<double>(k.compute_outage_tbs),
        static_cast<double>(k.effort_capped_tbs),
        static_cast<double>(k.decode_iterations_needed),
        static_cast<double>(k.decode_iterations_realized),
        k.offered_tb_bits,
        k.delivered_tb_bits,
    };
  };
  EXPECT_EQ(run(), run());
}

TEST(Pooling, FfdBinCount) {
  using units::Gops;
  auto g = [](std::initializer_list<double> xs) {
    std::vector<Gops> out;
    for (double x : xs) out.push_back(Gops{x});
    return out;
  };
  EXPECT_EQ(ffd_bin_count(g({0.5, 0.5, 0.5, 0.5}), Gops{1.0}), 2);
  EXPECT_EQ(ffd_bin_count(g({0.6, 0.6, 0.6}), Gops{1.0}), 3);
  EXPECT_EQ(ffd_bin_count(g({}), Gops{1.0}), 0);
  EXPECT_EQ(ffd_bin_count(g({0.3, 0.3, 0.3, 0.7, 0.7}), Gops{1.0}), 3);
  EXPECT_THROW(ffd_bin_count(g({1.5}), Gops{1.0}), pran::ContractViolation);
  EXPECT_THROW(ffd_bin_count(g({0.1}), Gops{0.0}), pran::ContractViolation);
}

TEST(Pooling, AnalysisShowsMultiplexingGain) {
  const auto fleet = workload::make_fleet(12, 3);
  const auto trace = workload::DayTrace::from_fleet(fleet, 24, 8);
  const auto summary =
      analyze_pooling(trace, cluster::ServerSpec{"s", 8, 150.0});
  ASSERT_EQ(summary.series.size(), 24u);
  EXPECT_GT(summary.peak_provisioned_servers, 0);
  EXPECT_LE(summary.pooled_peak_servers, summary.peak_provisioned_servers);
  // Heterogeneous diurnal fleet: pooling must save something.
  EXPECT_GT(summary.savings(), 0.0);
  for (const auto& pt : summary.series) {
    EXPECT_GE(pt.pooled_servers, 1);
    EXPECT_LE(pt.pooled_servers, summary.pooled_peak_servers);
  }
}

TEST(Pooling, ValidatesArguments) {
  const auto fleet = workload::make_fleet(2, 3);
  const auto trace = workload::DayTrace::from_fleet(fleet, 4, 2);
  EXPECT_THROW(analyze_pooling(trace, cluster::ServerSpec{}, 0.0),
               pran::ContractViolation);
  EXPECT_THROW(analyze_pooling(trace, cluster::ServerSpec{}, 0.8, 0.5),
               pran::ContractViolation);
}

}  // namespace
}  // namespace pran::core
