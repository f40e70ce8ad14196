// Daily operations: a full compressed day of a PRAN cluster, with an
// hour-by-hour operations report and one unplanned server failure.
//
//   $ ./daily_operations [cells] [servers]
//
// Watch the controller follow the diurnal tide: two servers overnight,
// scale-out through the morning ramp, a failure absorbed at midday, and
// consolidation again after the evening peak — with deadline misses held
// at zero throughout and the energy meter running.

#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"

int main(int argc, char** argv) {
  using namespace pran;
  const int cells = argc > 1 ? std::atoi(argv[1]) : 10;
  const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
  if (cells < 1 || servers < 1) {
    std::fprintf(stderr, "usage: %s [cells] [servers]\n", argv[0]);
    return 2;
  }

  core::DeploymentConfig config;
  config.num_cells = cells;
  config.num_servers = servers;
  config.seed = 365;
  config.start_hour = 0.0;
  config.day_compression = 7200.0;  // 2 diurnal hours per simulated second
  config.epoch = 250 * sim::kMillisecond;
  config.forecast_horizon_hours = 0.5;
  config.harq_retransmissions = true;

  std::printf(
      "daily operations: %d cells on %d servers, one compressed day "
      "(12 s), failure at noon\n\n",
      cells, servers);

  core::Deployment d(config);
  // Unplanned failure at 12:00, repair crew done by 14:00.
  d.fail_server_at(6 * sim::kSecond, 0);
  d.restore_server_at(7 * sim::kSecond, 0);

  Table ops({"hour", "active_srv_now", "subframes", "misses", "migrations",
             "energy_kj"});
  std::uint64_t prev_subframes = 0;
  std::uint64_t prev_misses = 0;
  int prev_migrations = 0;
  for (int half_day_step = 1; half_day_step <= 12; ++half_day_step) {
    d.run_for(sim::kSecond);  // 2 diurnal hours
    const auto kpis = d.kpis();
    const int active_now = d.controller().last_report().active_servers;
    ops.row()
        .cell(d.hour_at(d.now()), 0)
        .cell(active_now)
        .cell(static_cast<long long>(kpis.subframes_processed -
                                     prev_subframes))
        .cell(static_cast<long long>(kpis.deadline_misses - prev_misses))
        .cell(kpis.migrations - prev_migrations)
        .cell(kpis.energy_joules / 1e3, 2);
    prev_subframes = kpis.subframes_processed;
    prev_misses = kpis.deadline_misses;
    prev_migrations = kpis.migrations;
  }
  std::printf("%s\n", ops.render().c_str());

  const auto kpis = d.kpis();
  std::printf("day total: %llu subframes, %llu misses (%.5f), %llu dropped "
              "in the failure, %d migrations\n",
              static_cast<unsigned long long>(kpis.subframes_processed),
              static_cast<unsigned long long>(kpis.deadline_misses),
              kpis.miss_ratio,
              static_cast<unsigned long long>(kpis.dropped),
              kpis.migrations);
  std::printf("energy: %.1f kJ (mean %.0f W); HARQ retransmissions: %llu\n",
              kpis.energy_joules / 1e3,
              kpis.energy_joules / sim::to_seconds(d.now()),
              static_cast<unsigned long long>(kpis.harq_retransmissions));
  std::printf("outage cells during failover: %d\n",
              kpis.failover_outage_cells);
  return kpis.failover_outage_cells == 0 ? 0 : 1;
}
