// E5 — Exact ILP placement vs the online first-fit heuristic.
//
// Claims reproduced: (i) the heuristic's server count is at or near the ILP
// optimum in practice; (ii) its solve time is orders of magnitude smaller,
// which is what makes per-epoch re-planning viable at line rate. This is
// the "workshop-grade ILP plus heuristic" comparison from the calibration.
// Each row reports how many instances it averages and how many the MILP
// failed to place while first-fit placed them, which must be 0: the MILP
// starts from first-fit's packing.

#include <cstdio>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/placement.hpp"

int main() {
  using namespace pran;
  const int trials = 3;

  std::printf(
      "E5: MILP (exact) vs first-fit-decreasing placement, %d random "
      "instances per size\n\n",
      trials);

  Table table({"cells", "servers", "instances", "milp_failed_ffd_packed",
               "milp_servers", "ffd_servers", "gap_servers", "proven_pct",
               "milp_ms", "ffd_us", "speedup_x", "milp_nodes"});

  for (int cells : {4, 6, 8, 10, 12, 16, 24, 32}) {
    const int servers = cells / 2 + 2;
    RunningStats milp_srv, ffd_srv, gap, milp_time, ffd_time, nodes;
    int proven = 0, compared = 0, milp_failed = 0;
    for (int t = 0; t < trials; ++t) {
      Rng rng(1000 + static_cast<std::uint64_t>(cells) * 17 +
              static_cast<std::uint64_t>(t));
      core::PlacementProblem p;
      p.headroom = 0.85;
      for (int c = 0; c < cells; ++c) {
        const double demand = rng.uniform(0.08, 0.55);
        p.cells.push_back({c, demand, demand * 1.5});
      }
      for (int s = 0; s < servers; ++s)
        p.servers.push_back(cluster::ServerSpec{"s", 1, 1000.0});  // 1.0/TTI

      lp::MilpOptions opts;
      opts.time_limit_s = 5.0;
      const auto exact = core::MilpPlacer{opts}.place(p);
      const auto heur = core::FirstFitPlacer{}.place(p);
      // A row averages the instances both placers place.
      if (!exact.feasible && heur.feasible) ++milp_failed;
      if (!exact.feasible || !heur.feasible) continue;

      milp_srv.add(exact.active_servers());
      ffd_srv.add(heur.active_servers());
      // The optimality gap is only meaningful against a *proven* optimum;
      // at the time limit the MILP incumbent can even trail FFD.
      if (exact.proven_optimal) {
        ++proven;
        gap.add(heur.active_servers() - exact.active_servers());
      }
      ++compared;
      milp_time.add(exact.solve_seconds * 1e3);
      ffd_time.add(heur.solve_seconds * 1e6);
      nodes.add(static_cast<double>(exact.milp_nodes));
    }
    table.row()
        .cell(cells)
        .cell(servers)
        .cell(compared)
        .cell(milp_failed)
        .cell(milp_srv.mean(), 2)
        .cell(ffd_srv.mean(), 2)
        .cell(gap.count() ? gap.mean() : 0.0, 2)
        .cell(compared ? 100.0 * proven / compared : 0.0, 0)
        .cell(milp_time.mean(), 2)
        .cell(ffd_time.mean(), 1)
        .cell(milp_time.mean() * 1e3 / ffd_time.mean(), 0)
        .cell(nodes.mean(), 0);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: gap_servers ~ 0 (heuristic near-optimal); the MILP's time "
      "is set by how many nodes its proof needs, not by size alone\n");
  return 0;
}
