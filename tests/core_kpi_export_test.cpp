// Tests for the end-of-run export (core/kpi_export): a deployment of any
// server count exports into a registry of default capacity, every
// control-plane event is counted once, in the counter that owns it, and
// deployments running side by side count into their own registries.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/parallel.hpp"
#include "core/deployment.hpp"
#include "core/kpi_export.hpp"
#include "telemetry/family.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {
namespace {

TEST(KpiExport, ServersPastTheBudgetFoldIntoTheirMean) {
  // Two-core servers hold about two cells each, so 160 cells keep servers
  // 0-84 busy: the folded servers 64-299 mix busy and idle ones, and the
  // last of them (the one a plain last write would report) is idle.
  DeploymentConfig config;
  config.num_cells = 160;
  config.num_servers = 300;
  config.server.cores = 2;
  config.seed = 11;
  Deployment d(config);
  d.run_for(5 * sim::kMillisecond);

  telemetry::MetricsRegistry registry;  // default capacity: 256 gauges
  ASSERT_NO_THROW(export_deployment(d, registry));

  std::size_t series = 0;
  bool has_other = false;
  double other = 0.0;
  telemetry::ParsedSeries parsed;
  for (const auto& g : registry.snapshot().gauges) {
    if (!telemetry::parse_series_name(g.name, parsed) ||
        parsed.base != "executor.utilization")
      continue;
    ++series;
    if (parsed.value == "other") {
      has_other = true;
      other = g.value;
    }
  }
  EXPECT_LE(series, telemetry::kDefaultMaxSeries + 1);
  ASSERT_TRUE(has_other);

  double folded = 0.0;
  for (int s = 64; s < config.num_servers; ++s)
    folded += d.executor().utilization(s, d.now());
  ASSERT_GT(folded, 0.0);
  EXPECT_DOUBLE_EQ(other, folded / (config.num_servers - 64));
}

/// Faults with heartbeat detection and flap quarantine, the ladder on an
/// impaired shared fronthaul, and two-phase migration under the fast
/// morning ramp: every control-plane event kind fires.
DeploymentConfig control_plane_config() {
  DeploymentConfig config;
  config.num_cells = 8;
  config.num_servers = 5;
  config.seed = 17;
  config.epoch = 50 * sim::kMillisecond;
  config.start_hour = 7.0;
  config.day_compression = 7200;
  config.placer = DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  config.harq_retransmissions = true;

  config.heartbeat_period = 5 * sim::kMillisecond;
  config.heartbeat_miss_threshold = 2;
  config.controller.quarantine = true;
  config.controller.flap_threshold = 2;
  config.controller.flap_window = 5 * sim::kSecond;
  config.controller.quarantine_base = 300 * sim::kMillisecond;

  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{40e9}, 25 * sim::kMicrosecond};
  config.fronthaul_impairments.loss.p_good_to_bad = 0.02;
  config.fronthaul_impairments.loss.p_bad_to_good = 0.3;
  config.fronthaul_impairments.loss.loss_bad = 0.5;
  config.fronthaul_impairments.jitter.max_jitter = 50 * sim::kMicrosecond;
  config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
  config.fronthaul_impairments.brownout.mean_duration_seconds = 0.3;
  config.fronthaul_impairments.brownout.capacity_factor = 0.7;
  config.degradation.enabled = true;
  config.degradation.compression_ladder = {2.0};
  config.degradation.up_epochs = 1;
  config.degradation.down_epochs = 3;
  config.degradation.queue_delay_up_us = 1500.0;
  config.degradation.queue_delay_down_us = 1000.0;
  config.degradation.loss_up = 0.25;
  config.degradation.loss_down = 0.1;

  config.migration.enabled = true;
  config.migration.make_before_break = true;
  config.migration.lease_ttl = 20 * sim::kMillisecond;
  config.migration.transfer_ttis = 8;
  config.migration.transfer_bits = 8.0e6;
  config.migration.deadline = 100 * sim::kMillisecond;
  return config;
}

bool names_trace_series(const telemetry::MetricsSnapshot& snap) {
  const auto is_trace = [](const std::string& name) {
    return name.rfind("trace.", 0) == 0 || name.find(".trace.") != name.npos;
  };
  for (const auto& c : snap.counters)
    if (is_trace(c.name)) return true;
  for (const auto& g : snap.gauges)
    if (is_trace(g.name)) return true;
  for (const auto& h : snap.histograms)
    if (is_trace(h.name)) return true;
  return false;
}

TEST(KpiExport, EachControlPlaneEventIsCountedOnce) {
  Deployment d(control_plane_config());
  // Three crash/restore cycles on one server: recoveries inside the flap
  // window are quarantined.
  for (int i = 0; i < 3; ++i) {
    const sim::Time at = (200 + i * 250) * sim::kMillisecond;
    d.fail_server_at(at, 4);
    d.restore_server_at(at + 100 * sim::kMillisecond, 4);
  }
  d.run_for(2 * sim::kSecond);
  const DeploymentKpis kpis = d.kpis();
  const telemetry::MetricsRegistry& metrics = d.metrics();

  // The initial plan is a replan but not an epoch.
  const auto epochs =
      static_cast<std::uint64_t>(d.controller().epoch_totals().replans - 1);
  EXPECT_GT(epochs, 0u);
  EXPECT_EQ(metrics.counter_value("controller.epochs"), epochs);
  EXPECT_GT(kpis.ladder_transitions, 0u);
  EXPECT_EQ(metrics.counter_value("fronthaul.ladder_transitions"),
            kpis.ladder_transitions);
  EXPECT_GT(kpis.migrations_committed, 0u);
  EXPECT_EQ(metrics.counter_value("migration.committed"),
            kpis.migrations_committed);
  EXPECT_GT(kpis.quarantine_events, 0);
  EXPECT_EQ(metrics.counter_value("controller.quarantine_events"),
            static_cast<std::uint64_t>(kpis.quarantine_events));

  // What --metrics-out would write: the export plus the span histograms.
  telemetry::MetricsRegistry exported;
  export_deployment(d, exported);
  EXPECT_EQ(exported.counter_value("controller.epochs"), epochs);
  EXPECT_FALSE(names_trace_series(exported.snapshot()));
  EXPECT_FALSE(names_trace_series(telemetry::registry().snapshot()));
}

TEST(KpiExport, SpanHistogramsCountEveryTickAndEpochReplan) {
  if (!telemetry::enabled()) GTEST_SKIP() << "span macros compiled out";
  telemetry::reset_for_testing();
  DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 2;
  config.seed = 5;
  config.epoch = 10 * sim::kMillisecond;
  Deployment d(config);
  d.run_for(500 * sim::kMillisecond);
  std::uint64_t ticks = 0;
  std::uint64_t replans = 0;
  for (const auto& h : telemetry::registry().snapshot().histograms) {
    if (h.name == "span_us.deployment_tick") ticks = h.total();
    if (h.name == "span_us.controller_replan") replans = h.total();
  }
  // One tick per TTI, t = 0 and t = 500 ms included.
  EXPECT_EQ(ticks, 501u);
  EXPECT_EQ(replans, d.metrics().counter_value("controller.epochs"));
  EXPECT_EQ(replans, 50u);
  telemetry::reset_for_testing();
}

/// Five cells on a shared fibre that browns out to half capacity: the
/// ladder caps decode effort and sheds, and decodes still miss.
DeploymentConfig brownout_config() {
  DeploymentConfig config;
  config.num_cells = 5;
  config.num_servers = 4;
  config.seed = 19;
  config.harq_retransmissions = true;
  config.epoch = 10 * sim::kMillisecond;
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
  config.fronthaul_impairments.brownout.mean_duration_seconds = 0.4;
  config.fronthaul_impairments.brownout.capacity_factor = 0.5;
  config.degradation.enabled = true;
  config.degradation.compression_ladder = {1.5, 2.0};
  config.degradation.up_epochs = 1;
  config.degradation.down_epochs = 10;
  config.degradation.queue_delay_up_us = 1000.0;
  config.degradation.queue_delay_down_us = 700.0;
  config.degradation.loss_up = 0.2;
  config.degradation.loss_down = 0.05;
  config.degradation.effort_ladder = {6};
  return config;
}

/// Jobs the run timed into `deployment.job_service_us`.
std::uint64_t jobs_timed(const Deployment& d) {
  for (const auto& h : d.metrics().snapshot().histograms)
    if (h.name == "deployment.job_service_us") return h.total();
  return 0;
}

TEST(KpiExport, ParallelDeploymentsKeepTheirOwnCounters) {
  // Two different runs on two threads: each run's counters match its own
  // KPIs, and the runs disagree on every one of them.
  const DeploymentConfig configs[2] = {brownout_config(),
                                       control_plane_config()};
  std::unique_ptr<Deployment> runs[2];
  parallel_for_each(2, 2, [&](unsigned, std::size_t i) {
    runs[i] = std::make_unique<Deployment>(configs[i]);
    runs[i]->run_for(3 * sim::kSecond);
  });

  const char* const kNames[] = {"deployment.deadline_misses",
                                "fronthaul.shed_subframes",
                                "compute.capped_tbs", "migration.committed"};
  for (const auto& run : runs) {
    const DeploymentKpis kpis = run->kpis();
    const std::uint64_t expected[4] = {kpis.deadline_misses,
                                       kpis.shed_subframes,
                                       kpis.effort_capped_tbs,
                                       kpis.migrations_committed};
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(run->metrics().counter_value(kNames[i]), expected[i])
          << kNames[i];
    // Every job that ran is timed once, in its own run's histogram.
    EXPECT_EQ(jobs_timed(*run), kpis.subframes_processed);
  }
  // A shared registry would show both runs the same sums.
  for (const char* name : kNames)
    EXPECT_NE(runs[0]->metrics().counter_value(name),
              runs[1]->metrics().counter_value(name))
        << name;
}

}  // namespace
}  // namespace pran::core
