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
#define PRAN_KPI_GAUGE(type, name) \
  set_gauge(registry, "kpi.", #name, static_cast<double>(kpis.name));
  PRAN_DEPLOYMENT_KPIS(PRAN_KPI_GAUGE)
#undef PRAN_KPI_GAUGE
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
