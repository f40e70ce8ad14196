// Tests for the end-of-run export (core/kpi_export): a deployment of any
// server count exports into a registry of default capacity, every
// control-plane event is counted once, in the counter that owns it, every
// counted KPI reads its counter, and deployments running side by side
// count into their own registries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

TEST(KpiExport, EveryKpiIsExportedUnderItsName) {
  // HARQ, the ladder, overload control, lossy migration and two crashes
  // of a busy server, so most fields are nonzero and a field exported
  // under another's name reads back wrong.
  DeploymentConfig config = control_plane_config();
  config.overload.enabled = true;
  config.migration.control_plane.loss_probability = 0.2;
  Deployment d(config);
  const int victim = d.controller().server_of(0);
  d.fail_server_at(300 * sim::kMillisecond, victim);
  d.restore_server_at(400 * sim::kMillisecond, victim);
  d.fail_server_at(600 * sim::kMillisecond, victim);
  d.restore_server_at(700 * sim::kMillisecond, victim);
  d.run_for(2 * sim::kSecond);
  const DeploymentKpis kpis = d.kpis();
  EXPECT_GT(kpis.dropped, 0u);
  EXPECT_GT(kpis.harq_retransmissions, 0u);
  EXPECT_GT(kpis.ladder_transitions, 0u);
  EXPECT_GT(kpis.compute_outage_jobs, 0u);
  EXPECT_GT(kpis.migrations_committed, 0u);
  EXPECT_GT(kpis.migration_retries, 0u);

  telemetry::MetricsRegistry registry;
  export_kpis(kpis, registry);
  std::map<std::string, double> exported;
  for (const auto& g : registry.snapshot().gauges)
    if (g.name.rfind("kpi.", 0) == 0) exported[g.name] = g.value;

  std::size_t entries = 0;
#define PRAN_EXPECT_EXPORTED(type, name)                                 \
  ++entries;                                                            \
  ASSERT_EQ(exported.count("kpi." #name), 1u) << #name;                 \
  EXPECT_EQ(exported.at("kpi." #name), static_cast<double>(kpis.name)) \
      << #name;
  PRAN_DEPLOYMENT_KPIS(PRAN_EXPECT_EXPORTED)
#undef PRAN_EXPECT_EXPORTED
  EXPECT_EQ(entries, 48u);
  EXPECT_EQ(exported.size(), 48u);
  EXPECT_EQ(exported.count("kpi.mean_plan_seconds"), 0u);
}

/// The KPIs kpis() reads from the deployment's registry, each with the
/// counter it reads.
std::vector<std::pair<std::string, std::uint64_t>> counted_kpis(
    const DeploymentKpis& k) {
  return {
      {"controller.failover_outage_cells",
       static_cast<std::uint64_t>(k.failover_outage_cells)},
      {"controller.infeasible_epochs",
       static_cast<std::uint64_t>(k.infeasible_epochs)},
      {"controller.quarantine_events",
       static_cast<std::uint64_t>(k.quarantine_events)},
      {"deployment.outage_cell_ttis", k.outage_cell_ttis},
      {"deployment.harq_retransmissions", k.harq_retransmissions},
      {"deployment.lost_transport_blocks", k.lost_transport_blocks},
      {"monitor.blind_window_drops", k.blind_window_drops},
      {"fronthaul.lost_bursts", k.fronthaul_lost_bursts},
      {"fronthaul.late_bursts", k.fronthaul_late_bursts},
      {"fronthaul.quarantined_cell_ttis", k.quarantined_cell_ttis},
      {"fronthaul.ladder_transitions", k.ladder_transitions},
  };
}

/// E18's fleet: 6 cells on 4 servers, late morning, slow diurnal drift.
DeploymentConfig fault_config() {
  DeploymentConfig config;
  config.num_cells = 6;
  config.num_servers = 4;
  config.seed = 31;
  config.start_hour = 11.0;
  config.day_compression = 60.0;
  return config;
}

TEST(KpiExport, CountedKpisAreRegistryCounters) {
  std::map<std::string, std::uint64_t> most;  // largest KPI per counter
  const auto check = [&most](const Deployment& d) {
    for (const auto& [name, kpi] : counted_kpis(d.kpis())) {
      EXPECT_EQ(d.metrics().counter_value(name), kpi) << name;
      most[name] = std::max(most[name], kpi);
    }
  };

  {
    // HARQ under stochastic crashes that a 10 ms x 3 heartbeat detects:
    // the blind window drops subframes, and their transport blocks are
    // lost, as the controller still routes the retransmissions to the
    // dead server.
    DeploymentConfig config = fault_config();
    config.harq_retransmissions = true;
    config.stochastic_faults.mtbf_seconds = 0.5;
    config.stochastic_faults.mttr_seconds = 0.1;
    config.heartbeat_period = 10 * sim::kMillisecond;
    config.heartbeat_miss_threshold = 3;
    Deployment d(config);
    d.run_for(sim::kSecond);
    check(d);
  }
  {
    // A crash of the busiest server on a 30-cell, 4-server fleet: the
    // survivors have no room, so cells go into outage.
    DeploymentConfig config = fault_config();
    config.num_cells = 30;
    Deployment d(config);
    d.run_for(800 * sim::kMillisecond);
    std::vector<double> load(static_cast<std::size_t>(config.num_servers));
    for (int c = 0; c < config.num_cells; ++c)
      load[static_cast<std::size_t>(d.controller().server_of(c))] +=
          d.controller().estimated_demand(c);
    const auto busiest = std::max_element(load.begin(), load.end());
    d.fail_server_at(d.now(), static_cast<int>(busiest - load.begin()));
    d.run_for(100 * sim::kMillisecond);
    check(d);
  }
  {
    // A fibre that keeps losing bursts: each lost burst is retransmitted,
    // compression and shedding do not help, so the ladder climbs to its
    // quarantine rung.
    DeploymentConfig config = fault_config();
    config.num_cells = 8;
    config.harq_retransmissions = true;
    config.epoch = 10 * sim::kMillisecond;
    config.shared_fronthaul =
        fronthaul::LinkParams{units::BitRate{40e9}, 25 * sim::kMicrosecond};
    config.fronthaul_impairments.loss.p_good_to_bad = 0.5;
    config.fronthaul_impairments.loss.p_bad_to_good = 0.1;
    config.fronthaul_impairments.loss.loss_bad = 0.5;
    config.degradation.enabled = true;
    config.degradation.compression_ladder = {2.0};
    config.degradation.up_epochs = 1;
    config.degradation.loss_up = 0.05;
    config.degradation.loss_down = 0.01;
    Deployment d(config);
    d.run_for(200 * sim::kMillisecond);
    check(d);
  }

  // Between them the scenarios count each of these facts, so the checks
  // above compare nonzero values.
  for (const char* name :
       {"controller.failover_outage_cells", "deployment.outage_cell_ttis",
        "deployment.harq_retransmissions", "deployment.lost_transport_blocks",
        "monitor.blind_window_drops", "fronthaul.quarantined_cell_ttis"})
    EXPECT_GT(most[name], 0u) << name;
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
