// Scheduler study: swap the MAC scheduling policy of a cell (PRAN's
// programmable MAC) and watch throughput, per-UE fairness, and the
// processing load the cluster must absorb.
//
//   $ ./scheduler_study [num_ues] [ttis]

#include <cstdio>
#include <cstdlib>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "lte/cost_model.hpp"
#include "mac/cell_mac.hpp"

int main(int argc, char** argv) {
  using namespace pran;
  const int num_ues = argc > 1 ? std::atoi(argv[1]) : 16;
  const int ttis = argc > 2 ? std::atoi(argv[2]) : 5000;
  if (num_ues < 1 || ttis < 1) {
    std::fprintf(stderr, "usage: %s [num_ues] [ttis]\n", argv[0]);
    return 2;
  }

  std::printf("scheduler study: %d UEs, %d TTIs, full-buffer traffic\n\n",
              num_ues, ttis);

  const lte::CostModel model;
  Table table({"scheduler", "cell_mbps", "p5_ue_mbps", "p95_ue_mbps",
               "jain", "mean_sf_us_on_150gops"});
  for (const char* name : {"max-rate", "proportional-fair", "round-robin"}) {
    mac::CellMacConfig config;
    config.scheduler = name;
    config.num_ues = num_ues;
    config.seed = 4242;
    mac::CellMac cell(config);

    double total_gops = 0.0;
    for (int t = 0; t < ttis; ++t) {
      const auto allocs = cell.run_tti();
      total_gops += model
                        .subframe_cost(config.cell, allocs,
                                       lte::Direction::kUplink)
                        .total();
    }

    Samples tput(cell.ue_throughputs_bps());
    table.row()
        .cell(name)
        .cell(cell.cell_throughput_bps() / 1e6, 1)
        .cell(tput.quantile(0.05) / 1e6, 2)
        .cell(tput.quantile(0.95) / 1e6, 2)
        .cell(cell.fairness(), 3)
        .cell(total_gops / ttis / 150.0 * 1e6, 1);
  }
  std::printf("%s\n", table.render().c_str());

  // Drill into PF: the per-UE throughput spread.
  mac::CellMacConfig config;
  config.scheduler = "proportional-fair";
  config.num_ues = num_ues;
  config.seed = 4242;
  mac::CellMac pf(config);
  for (int t = 0; t < ttis; ++t) pf.run_tti();
  Samples pf_tput(pf.ue_throughputs_bps());
  Table spread({"quantile", "ue_mbps"});
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
    spread.row().cell(q, 2).cell(pf_tput.quantile(q) / 1e6, 2);
  std::printf("proportional-fair per-UE throughput distribution:\n%s",
              spread.render().c_str());
  return 0;
}
