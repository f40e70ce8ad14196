// E9 — Placement stability ablation: migrations vs consolidation.
//
// Compares the controller's placement policies over a fast-forwarded
// diurnal day: sticky first-fit (hysteresis: cells stay put), plain
// first-fit (re-packs every epoch), exact MILP with migration penalty, and
// static peak provisioning. Claims reproduced: hysteresis eliminates
// placement thrashing at a modest server cost; re-packing every epoch
// buys few servers but migrates constantly.

#include <cstdio>

#include "common/table.hpp"
#include "core/deployment.hpp"

int main() {
  using namespace pran;

  std::printf(
      "E9: migrations vs servers over a compressed day (10 cells, "
      "6 servers, 12 s run = 24 diurnal hours, epoch 250 ms)\n\n");

  struct Policy {
    const char* name;
    core::DeploymentConfig::PlacerKind kind;
  };
  const Policy policies[] = {
      {"ffd-sticky", core::DeploymentConfig::PlacerKind::kFirstFit},
      {"ffd-repack", core::DeploymentConfig::PlacerKind::kFirstFitNoSticky},
      {"milp", core::DeploymentConfig::PlacerKind::kMilp},
      {"static-peak", core::DeploymentConfig::PlacerKind::kStaticPeak},
  };

  Table table({"policy", "migrations", "mig_per_epoch", "mean_active_srv",
               "miss_ratio", "plan_us", "energy_kj"});
  for (const auto& policy : policies) {
    core::DeploymentConfig config;
    config.num_cells = 10;
    config.num_servers = 6;
    config.placer = policy.kind;
    config.seed = 17;
    config.start_hour = 0.0;
    config.day_compression = 7200.0;  // 2 diurnal hours per second
    config.epoch = 250 * sim::kMillisecond;
    config.controller.migration_weight = 0.02;
    core::Deployment d(config);
    d.run_for(12 * sim::kSecond);

    const auto kpis = d.kpis();
    const double epochs =
        static_cast<double>(d.controller().epoch_totals().replans);
    table.row()
        .cell(policy.name)
        .cell(kpis.migrations)
        .cell(kpis.migrations / epochs, 2)
        .cell(kpis.mean_active_servers, 2)
        .cell(kpis.miss_ratio, 5)
        .cell(kpis.mean_plan_seconds * 1e6, 1)
        .cell(kpis.energy_joules / 1e3, 2);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: sticky = near-zero migrations; repack = fewest servers but "
      "constant churn; static-peak = most servers, no churn — and ~2x the "
      "energy of the consolidating policies\n");
  return 0;
}
