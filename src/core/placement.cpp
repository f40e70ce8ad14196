#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "telemetry/clock.hpp"

namespace pran::core {
namespace {

void validate(const PlacementProblem& p) {
  PRAN_REQUIRE(!p.cells.empty(), "placement problem has no cells");
  PRAN_REQUIRE(!p.servers.empty(), "placement problem has no servers");
  PRAN_REQUIRE(p.headroom > 0.0 && p.headroom <= 1.0,
               "headroom outside (0, 1]");
  for (const auto& c : p.cells)
    PRAN_REQUIRE(c.gops_per_tti >= 0.0, "cell demand must be non-negative");
  if (p.previous)
    PRAN_REQUIRE(p.previous->size() == p.cells.size(),
                 "previous placement has a different cell count");
}

double budget(const PlacementProblem& p, std::size_t s) {
  return p.headroom * p.servers[s].gops_per_tti();
}

}  // namespace

int PlacementResult::active_servers() const {
  std::vector<int> seen;
  for (int s : server_of_cell) {
    if (s < 0) continue;  // cells in outage occupy no server
    if (std::find(seen.begin(), seen.end(), s) == seen.end())
      seen.push_back(s);
  }
  return static_cast<int>(seen.size());
}

int PlacementResult::migrations_from(const std::vector<int>& previous) const {
  PRAN_REQUIRE(previous.size() == server_of_cell.size(),
               "placement size mismatch");
  int moves = 0;
  for (std::size_t i = 0; i < previous.size(); ++i)
    if (previous[i] != server_of_cell[i] && previous[i] >= 0) ++moves;
  return moves;
}

std::vector<double> server_loads(const PlacementProblem& problem,
                                 const std::vector<int>& assignment) {
  PRAN_REQUIRE(assignment.size() == problem.cells.size(),
               "assignment size mismatch");
  std::vector<double> load(problem.servers.size(), 0.0);
  for (std::size_t c = 0; c < assignment.size(); ++c) {
    const int s = assignment[c];
    PRAN_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < problem.servers.size(),
                 "assignment references an unknown server");
    load[static_cast<std::size_t>(s)] += problem.cells[c].gops_per_tti;
  }
  return load;
}

bool placement_fits(const PlacementProblem& problem,
                    const std::vector<int>& assignment) {
  const auto loads = server_loads(problem, assignment);
  for (std::size_t s = 0; s < loads.size(); ++s)
    if (loads[s] > budget(problem, s) + lp::kFeasibilityTol) return false;
  return true;
}

bool placement_survives_any_single_failure(
    const PlacementProblem& problem, const std::vector<int>& assignment) {
  const auto loads = server_loads(problem, assignment);
  const std::size_t S = problem.servers.size();
  if (S < 2) return false;
  for (std::size_t victim = 0; victim < S; ++victim) {
    if (loads[victim] <= 0.0) continue;
    // The victim's cells, largest first — the order Controller's failover
    // rescue uses — into the survivors' residual headroom.
    std::vector<std::size_t> cells;
    for (std::size_t c = 0; c < assignment.size(); ++c)
      if (static_cast<std::size_t>(assignment[c]) == victim) cells.push_back(c);
    std::sort(cells.begin(), cells.end(), [&](std::size_t a, std::size_t b) {
      if (problem.cells[a].gops_per_tti != problem.cells[b].gops_per_tti)
        return problem.cells[a].gops_per_tti > problem.cells[b].gops_per_tti;
      return a < b;
    });
    // Rescue targets are the servers the plan actually uses: idle servers
    // are powered down / returned to the cloud in PRAN, so the guarantee
    // must hold among the hot survivors alone.
    std::vector<double> residual(S, 0.0);
    for (std::size_t s = 0; s < S; ++s)
      if (s != victim && loads[s] > 0.0)
        residual[s] = budget(problem, s) - loads[s];
    for (std::size_t c : cells) {
      const double d = problem.cells[c].gops_per_tti;
      bool placed = false;
      for (std::size_t s = 0; s < S && !placed; ++s) {
        if (s == victim || loads[s] <= 0.0 || residual[s] + 1e-12 < d)
          continue;
        residual[s] -= d;
        placed = true;
      }
      if (!placed) return false;
    }
  }
  return true;
}

lp::Model build_placement_model(const PlacementProblem& problem) {
  validate(problem);
  const std::size_t C = problem.cells.size();
  const std::size_t S = problem.servers.size();

  lp::Model model;
  // x_{c,s}: cell c on server s (row-major), then y_s: server s active.
  std::vector<std::vector<lp::Variable>> x(C);
  for (std::size_t c = 0; c < C; ++c) {
    x[c].reserve(S);
    for (std::size_t s = 0; s < S; ++s)
      x[c].push_back(model.add_binary(
          "x_c" + std::to_string(problem.cells[c].cell_id) + "_s" +
          std::to_string(s)));
  }
  std::vector<lp::Variable> y;
  y.reserve(S);
  for (std::size_t s = 0; s < S; ++s)
    y.push_back(model.add_binary("y_s" + std::to_string(s)));

  // Every cell on exactly one server.
  for (std::size_t c = 0; c < C; ++c) {
    lp::LinearExpr sum;
    for (std::size_t s = 0; s < S; ++s) sum += lp::LinearExpr(x[c][s]);
    model.add_constraint("assign_c" + std::to_string(c), sum == 1.0);
  }

  // Capacity with activation coupling.
  for (std::size_t s = 0; s < S; ++s) {
    lp::LinearExpr load;
    for (std::size_t c = 0; c < C; ++c)
      load += problem.cells[c].gops_per_tti * lp::LinearExpr(x[c][s]);
    load -= budget(problem, s) * lp::LinearExpr(y[s]);
    model.add_constraint("cap_s" + std::to_string(s), load <= 0.0);
  }

  // Survivable mode (aggregate N+1 redundancy): for every server s, the
  // headroom capacity of the *other* active servers must cover the whole
  // demand — since all cells are placed, load excluding s plus load on s
  // is the constant total D, so "spare excluding s >= load on s" is
  //   sum_{s' != s} h B_{s'} y_{s'} >= D.
  // The redundancy is priced by the active-server objective: survivability
  // costs exactly the extra y_s it forces on.
  if (problem.survivable && S >= 2) {
    double total_demand = 0.0;
    for (const auto& c : problem.cells) total_demand += c.gops_per_tti;
    for (std::size_t s = 0; s < S; ++s) {
      lp::LinearExpr spare;
      for (std::size_t o = 0; o < S; ++o)
        if (o != s) spare += budget(problem, o) * lp::LinearExpr(y[o]);
      model.add_constraint("survive_s" + std::to_string(s),
                           spare >= total_demand);
    }
  }

  // The servers that hosted a cell last epoch: moving a cell off one of
  // them costs a migration, so they are not interchangeable with the
  // identical servers beside them.
  std::vector<bool> hosted(S, false);
  if (problem.previous)
    for (const int prev : *problem.previous)
      if (prev >= 0 && static_cast<std::size_t>(prev) < S)
        hosted[static_cast<std::size_t>(prev)] = true;

  // Runs of identical servers: [begin, run_end(begin)).
  auto same_spec = [&](std::size_t a, std::size_t b) {
    return problem.servers[a].cores == problem.servers[b].cores &&
           problem.servers[a].gops_per_core == problem.servers[b].gops_per_core;
  };
  auto run_end = [&](std::size_t begin) {
    std::size_t end = begin + 1;
    while (end < S && same_spec(end - 1, end)) ++end;
    return end;
  };

  // Symmetry breaking within each run. Its unhosted servers are
  // interchangeable: y_f >= y_g for each such f and the next such g. A
  // hosting server h dominates them, since moving an unhosted server's
  // cells onto an idle h adds no migration: y_h >= y_f for the run's first
  // unhosted server f.
  for (std::size_t begin = 0, end = 0; begin < S; begin = end) {
    end = run_end(begin);
    std::size_t first_free = S, last_free = S;
    for (std::size_t s = begin; s < end; ++s) {
      if (hosted[s]) continue;
      if (last_free < S)
        model.add_constraint(
            "sym_s" + std::to_string(last_free),
            lp::LinearExpr(y[last_free]) - lp::LinearExpr(y[s]) >= 0.0);
      else
        first_free = s;
      last_free = s;
    }
    if (first_free == S) continue;
    for (std::size_t s = begin; s < end; ++s)
      if (hosted[s])
        model.add_constraint(
            "dom_s" + std::to_string(s),
            lp::LinearExpr(y[s]) - lp::LinearExpr(y[first_free]) >= 0.0);
  }

  // Objective: active servers, then migrations. With a previous placement
  // one server is worth |cells| + 1, more than moving every cell, so the
  // server count stays lexicographically dominant and every coefficient
  // stays integral. move_c = 1 - x_{c, prev_c} (linear, no extra vars).
  lp::LinearExpr objective;
  for (std::size_t s = 0; s < S; ++s) objective += lp::LinearExpr(y[s]);
  if (problem.previous) {
    objective *= static_cast<double>(C + 1);
    for (std::size_t c = 0; c < C; ++c) {
      const int prev = (*problem.previous)[c];
      if (prev < 0 || static_cast<std::size_t>(prev) >= S) continue;
      objective += lp::LinearExpr(1.0) -
                   lp::LinearExpr(x[c][static_cast<std::size_t>(prev)]);
    }
  }
  model.set_objective(lp::Sense::kMinimize, objective);

  // Start point: first-fit's packing, sticky when there is a previous
  // placement. Within a run, first-fit opens the unhosted servers in index
  // order, which meets the sym_s rows. Where it leaves a hosting server
  // idle while it uses an unhosted one, the run's last used unhosted
  // server hands its cells to the idle one: no cell leaves its previous
  // server, so the packing is no worse, and it meets the dom_s rows.
  const PlacementResult ffd =
      FirstFitPlacer(problem.previous.has_value()).place(problem);
  if (ffd.feasible) {
    std::vector<bool> used(S, false);
    for (const int s : ffd.server_of_cell)
      used[static_cast<std::size_t>(s)] = true;
    std::vector<std::size_t> label(S);
    std::iota(label.begin(), label.end(), std::size_t{0});
    for (std::size_t begin = 0, end = 0; begin < S; begin = end) {
      end = run_end(begin);
      std::vector<std::size_t> idle_hosts, used_free;
      for (std::size_t s = begin; s < end; ++s) {
        if (hosted[s] && !used[s]) idle_hosts.push_back(s);
        if (!hosted[s] && used[s]) used_free.push_back(s);
      }
      while (!idle_hosts.empty() && !used_free.empty()) {
        label[used_free.back()] = idle_hosts.back();
        idle_hosts.pop_back();
        used_free.pop_back();
      }
    }
    std::vector<double> start(C * S + S, 0.0);
    for (std::size_t c = 0; c < C; ++c) {
      const std::size_t s =
          label[static_cast<std::size_t>(ffd.server_of_cell[c])];
      start[c * S + s] = 1.0;
      start[C * S + s] = 1.0;
    }
    model.set_start(std::move(start));
  }
  return model;
}

// ------------------------------------------------------------- MilpPlacer

MilpPlacer::MilpPlacer(lp::MilpOptions options) : options_(options) {}

PlacementResult MilpPlacer::place(const PlacementProblem& problem) {
  validate(problem);
  const std::size_t C = problem.cells.size();
  const std::size_t S = problem.servers.size();
  if (problem.survivable && S < 2) return {};  // nothing can survive a loss

  const lp::Model model = build_placement_model(problem);
  const auto milp = lp::MilpSolver{options_}.solve(model);

  PlacementResult result;
  result.solve_seconds = milp.solve_seconds;
  result.milp_nodes = milp.nodes;
  if (!milp.has_solution()) return result;

  result.feasible = true;
  result.proven_optimal = milp.status == lp::MilpStatus::kOptimal;
  result.server_of_cell.assign(C, -1);
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t s = 0; s < S; ++s) {
      if (milp.x[c * S + s] > 0.5) {
        result.server_of_cell[c] = static_cast<int>(s);
        break;
      }
    }
    PRAN_CHECK(result.server_of_cell[c] >= 0,
               "MILP solution leaves a cell unassigned");
  }
  PRAN_CHECK(placement_fits(problem, result.server_of_cell),
             "MILP solution violates capacity");

  if (problem.survivable &&
      !placement_survives_any_single_failure(problem, result.server_of_cell)) {
    // The survive_s constraints reserve aggregate spare across the powered
    // set y, but the solver may still concentrate the cells on a subset of
    // it. Re-pack across the whole powered set (first-fit with cap
    // tightening) so the redundancy is realised by the hosting servers
    // themselves; the powered-set size — the objective — is unchanged.
    std::vector<int> powered;
    for (std::size_t s = 0; s < S; ++s)
      if (milp.x[C * S + s] > 0.5) powered.push_back(static_cast<int>(s));
    PlacementProblem sub = problem;
    sub.previous.reset();
    sub.servers.clear();
    for (int s : powered)
      sub.servers.push_back(problem.servers[static_cast<std::size_t>(s)]);
    const PlacementResult packed = FirstFitPlacer(/*sticky=*/false).place(sub);
    if (!packed.feasible) {
      // Aggregate spare exists but no per-victim re-pack does
      // (bin-packing granularity): report honestly as infeasible.
      result.feasible = false;
      result.server_of_cell.clear();
      return result;
    }
    for (std::size_t c = 0; c < C; ++c)
      result.server_of_cell[c] =
          powered[static_cast<std::size_t>(packed.server_of_cell[c])];
    PRAN_CHECK(placement_fits(problem, result.server_of_cell),
               "survivable re-pack violates capacity");
    PRAN_CHECK(placement_survives_any_single_failure(problem,
                                                     result.server_of_cell),
               "survivable re-pack lost the redundancy guarantee");
  }
  return result;
}

// --------------------------------------------------------- FirstFitPlacer

PlacementResult FirstFitPlacer::place(const PlacementProblem& problem) {
  validate(problem);
  const std::size_t C = problem.cells.size();
  const std::size_t S = problem.servers.size();

  std::vector<std::size_t> order(C);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (problem.cells[a].gops_per_tti != problem.cells[b].gops_per_tti)
      return problem.cells[a].gops_per_tti > problem.cells[b].gops_per_tti;
    return a < b;
  });

  // One first-fit-decreasing pass with per-server caps scaled by
  // `cap_scale`. Returns the assignment, or nullopt when some cell has no
  // room under the scaled caps.
  auto pack = [&](double cap_scale) -> std::optional<std::vector<int>> {
    std::vector<double> load(S, 0.0);
    std::vector<bool> active(S, false);
    std::vector<int> assignment(C, -1);
    auto fits = [&](std::size_t s, double d) {
      return load[s] + d <= cap_scale * budget(problem, s) + 1e-12;
    };

    for (std::size_t idx : order) {
      const double d = problem.cells[idx].gops_per_tti;
      int chosen = -1;

      // Affinity: stay where the cell was last epoch if it still fits.
      if (sticky_ && problem.previous) {
        const int prev = (*problem.previous)[idx];
        if (prev >= 0 && static_cast<std::size_t>(prev) < S &&
            fits(static_cast<std::size_t>(prev), d))
          chosen = prev;
      }
      // First active server with room.
      if (chosen < 0) {
        for (std::size_t s = 0; s < S; ++s) {
          if (active[s] && fits(s, d)) {
            chosen = static_cast<int>(s);
            break;
          }
        }
      }
      // Open the smallest inactive server that fits.
      if (chosen < 0) {
        double best_budget = 0.0;
        for (std::size_t s = 0; s < S; ++s) {
          if (active[s] || !fits(s, d)) continue;
          const double b = budget(problem, s);
          if (chosen < 0 || b < best_budget) {
            chosen = static_cast<int>(s);
            best_budget = b;
          }
        }
      }
      if (chosen < 0) return std::nullopt;
      assignment[idx] = chosen;
      load[static_cast<std::size_t>(chosen)] += d;
      active[static_cast<std::size_t>(chosen)] = true;
    }
    return assignment;
  };

  const telemetry::Stopwatch stopwatch;
  auto finish = [&](std::optional<std::vector<int>> assignment) {
    PlacementResult result;
    result.solve_seconds = stopwatch.elapsed_seconds();
    if (!assignment) return result;  // infeasible under this heuristic
    result.server_of_cell = std::move(*assignment);
    result.feasible = true;
    PRAN_CHECK(placement_fits(problem, result.server_of_cell),
               "first-fit produced an overloaded server");
    return result;
  };

  if (!problem.survivable) return finish(pack(1.0));

  // Survivable mode: tighten the per-server cap until every victim's cells
  // re-pack into the survivors (tighter caps spread load over more
  // servers, leaving more residual headroom everywhere). A pack failure is
  // final — even tighter caps only get harder to satisfy.
  if (S < 2) return finish(std::nullopt);
  for (double cap_scale = 1.0; cap_scale > 0.05; cap_scale *= 0.85) {
    auto assignment = pack(cap_scale);
    if (!assignment) break;
    if (placement_survives_any_single_failure(problem, *assignment))
      return finish(std::move(assignment));
  }
  return finish(std::nullopt);
}

// -------------------------------------------------------- StaticPeakPlacer

PlacementResult StaticPeakPlacer::place(const PlacementProblem& problem) {
  validate(problem);
  // Budget every cell at its peak subframe cost: the demand a dedicated
  // appliance would be sized for.
  PlacementProblem peak = problem;
  for (auto& c : peak.cells) {
    PRAN_REQUIRE(c.peak_subframe_gops >= c.gops_per_tti,
                 "peak demand below sustained demand");
    c.gops_per_tti = c.peak_subframe_gops;
  }
  peak.previous.reset();
  FirstFitPlacer inner(/*sticky=*/false);
  PlacementResult result = inner.place(peak);
  if (result.feasible) {
    // The real loads are the sustained ones; peak sizing implies they fit.
    PRAN_CHECK(placement_fits(problem, result.server_of_cell),
               "peak-provisioned placement violates sustained capacity");
  }
  return result;
}

}  // namespace pran::core
