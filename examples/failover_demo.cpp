// Failover demo: kill a server mid-run and watch the controller re-home
// its cells within milliseconds.
//
//   $ ./failover_demo
//
// Prints which cells moved where, the jobs lost in flight, the
// post-recovery steady state, and the injector's fault log.

#include <cstdio>

#include "common/table.hpp"
#include "core/deployment.hpp"

int main() {
  using namespace pran;

  core::DeploymentConfig config;
  config.num_cells = 8;
  config.num_servers = 4;
  config.seed = 31;
  config.start_hour = 11.0;
  config.day_compression = 60.0;
  core::Deployment d(config);

  d.run_for(400 * sim::kMillisecond);

  auto print_placement = [&](const char* when) {
    std::printf("%s:\n", when);
    for (int c = 0; c < config.num_cells; ++c)
      std::printf("  cell %d -> server %d\n", c, d.controller().server_of(c));
  };
  print_placement("placement before failure");

  const int victim = d.controller().server_of(0);
  std::printf("\n>>> failing server %d at t=%.3fs <<<\n\n", victim,
              sim::to_seconds(d.now()));
  const auto before = d.kpis();
  d.fail_server_at(d.now(), victim);
  d.run_for(100 * sim::kMillisecond);

  print_placement("placement 100 ms after failure");
  const auto after = d.kpis();
  std::printf("\njobs lost in flight: %llu, outage cells: %d\n",
              static_cast<unsigned long long>(after.dropped - before.dropped),
              after.failover_outage_cells);

  std::printf("\nrestoring server %d; continuing one second\n", victim);
  d.restore_server_at(d.now(), victim);
  d.run_for(sim::kSecond);

  const auto final_kpis = d.kpis();
  Table kpis({"metric", "value"});
  kpis.row().cell("subframes processed").cell(
      static_cast<long long>(final_kpis.subframes_processed));
  kpis.row().cell("deadline misses").cell(
      static_cast<long long>(final_kpis.deadline_misses));
  kpis.row().cell("jobs dropped").cell(
      static_cast<long long>(final_kpis.dropped));
  kpis.row().cell("miss ratio").cell(final_kpis.miss_ratio, 6);
  kpis.row().cell("migrations").cell(final_kpis.migrations);
  std::printf("\n%s\n", kpis.render().c_str());

  std::printf("fault log:\n");
  for (const faults::FaultRecord& f : d.injector().log()) {
    std::printf("  t=%.3fs server %d %s", sim::to_seconds(f.at), f.server_id,
                faults::fault_kind_name(f.kind));
    if (f.recovered_at >= 0)
      std::printf(", recovered at t=%.3fs", sim::to_seconds(f.recovered_at));
    std::printf("\n");
  }
  return final_kpis.failover_outage_cells == 0 ? 0 : 1;
}
