#include "core/kpi_export.hpp"

#include <algorithm>
#include <string>

#include "telemetry/family.hpp"

namespace pran::core {

namespace {

void set_gauge(telemetry::MetricsRegistry& registry, std::string_view prefix,
               std::string_view name, double value) {
  registry.set(registry.gauge(std::string(prefix) + std::string(name)), value);
}

}  // namespace

void export_kpis(const DeploymentKpis& kpis,
                 telemetry::MetricsRegistry& registry) {
  const auto set = [&](std::string_view name, double value) {
    set_gauge(registry, "kpi.", name, value);
  };
  set("subframes_processed", static_cast<double>(kpis.subframes_processed));
  set("deadline_misses", static_cast<double>(kpis.deadline_misses));
  set("dropped", static_cast<double>(kpis.dropped));
  set("miss_ratio", kpis.miss_ratio);
  set("migrations", kpis.migrations);
  set("mean_active_servers", kpis.mean_active_servers);
  set("failover_outage_cells", kpis.failover_outage_cells);
  set("infeasible_epochs", kpis.infeasible_epochs);
  set("shed_cell_epochs", kpis.shed_cell_epochs);
  set("outage_cell_ttis", static_cast<double>(kpis.outage_cell_ttis));
  set("harq_retransmissions",
      static_cast<double>(kpis.harq_retransmissions));
  set("lost_transport_blocks",
      static_cast<double>(kpis.lost_transport_blocks));
  set("energy_joules", kpis.energy_joules);
  set("faults_injected", kpis.faults_injected);
  set("degrade_events", kpis.degrade_events);
  set("fault_detections", kpis.fault_detections);
  set("mean_detection_latency_ms", kpis.mean_detection_latency_ms);
  set("blind_window_drops", static_cast<double>(kpis.blind_window_drops));
  set("quarantine_events", kpis.quarantine_events);
  set("fronthaul_lost_bursts",
      static_cast<double>(kpis.fronthaul_lost_bursts));
  set("fronthaul_late_bursts",
      static_cast<double>(kpis.fronthaul_late_bursts));
  set("fronthaul_brownouts", static_cast<double>(kpis.fronthaul_brownouts));
  set("shed_subframes", static_cast<double>(kpis.shed_subframes));
  set("compression_tb_failures",
      static_cast<double>(kpis.compression_tb_failures));
  set("quarantined_cell_ttis",
      static_cast<double>(kpis.quarantined_cell_ttis));
  set("ladder_rung", kpis.ladder_rung);
  set("ladder_transitions", static_cast<double>(kpis.ladder_transitions));
  set("compute_outage_jobs", static_cast<double>(kpis.compute_outage_jobs));
  set("compute_outage_tbs", static_cast<double>(kpis.compute_outage_tbs));
  set("compute_outage_ratio", kpis.compute_outage_ratio);
  set("effort_capped_tbs", static_cast<double>(kpis.effort_capped_tbs));
  set("decode_iterations_needed",
      static_cast<double>(kpis.decode_iterations_needed));
  set("decode_iterations_realized",
      static_cast<double>(kpis.decode_iterations_realized));
  set("offered_tb_bits", kpis.offered_tb_bits);
  set("delivered_tb_bits", kpis.delivered_tb_bits);
  set("peak_compute_pressure", kpis.peak_compute_pressure);
  set("migrations_started", static_cast<double>(kpis.migrations_started));
  set("migrations_committed",
      static_cast<double>(kpis.migrations_committed));
  set("migrations_aborted", static_cast<double>(kpis.migrations_aborted));
  set("migrations_rolled_back",
      static_cast<double>(kpis.migrations_rolled_back));
  set("migrations_taken_over",
      static_cast<double>(kpis.migrations_taken_over));
  set("migration_retries", static_cast<double>(kpis.migration_retries));
  set("migrations_deferred", static_cast<double>(kpis.migrations_deferred));
  set("migration_deadline_expired",
      static_cast<double>(kpis.migration_deadline_expired));
  set("migration_stale_messages",
      static_cast<double>(kpis.migration_stale_messages));
  set("migration_blackout_ttis",
      static_cast<double>(kpis.migration_blackout_ttis));
  set("migration_dual_executions",
      static_cast<double>(kpis.migration_dual_executions));
  set("mean_handoff_latency_ms", kpis.mean_handoff_latency_ms);
}

void export_deployment(const Deployment& deployment,
                       telemetry::MetricsRegistry& registry) {
  registry.merge(deployment.metrics().snapshot());
  export_kpis(deployment.kpis(), registry);

  const auto& executor = deployment.executor();
  set_gauge(registry, "executor.", "busy_seconds",
            executor.stats().total_busy_seconds);
  const sim::Time window = deployment.now();
  if (window > 0) {
    // Servers past the family's series budget share `{server=other}`,
    // written once with their mean utilisation (one write per server
    // would leave only the last server's value there).
    telemetry::GaugeFamily utilization(registry, "executor.utilization",
                                       "server");
    const std::size_t servers =
        static_cast<std::size_t>(executor.num_servers());
    const std::size_t named = std::min(servers, telemetry::kDefaultMaxSeries);
    for (std::size_t s = 0; s < named; ++s)
      utilization.set(s, executor.utilization(static_cast<int>(s), window));
    if (servers > named) {
      double folded = 0.0;
      for (std::size_t s = named; s < servers; ++s)
        folded += executor.utilization(static_cast<int>(s), window);
      utilization.set(named, folded / static_cast<double>(servers - named));
    }
  }

  set_gauge(
      registry, "solver.", "epochs",
      static_cast<double>(deployment.controller().epoch_totals().replans));

  if (const DegradationController* ladder = deployment.degradation()) {
    // Per-rung dwell: how long the ladder sat on each rung (as of the
    // last epoch update) — the `pran-report --compute` dwell table.
    telemetry::GaugeFamily dwell(registry, "compute.ladder_dwell_seconds",
                                 "rung");
    for (int r = 0; r <= ladder->max_rung(); ++r)
      dwell.set(static_cast<std::size_t>(r),
                sim::to_seconds(ladder->dwell(r)));
  }
}

}  // namespace pran::core
