// placement_milp: the controller's exact placer on small instances whose
// demands come from the traffic model at different hours. The only
// workload where the lp layer does real work.

#include <cmath>

#include "core/placement.hpp"
#include "harness.hpp"
#include "lp/branch_and_bound.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using pran::json::Value;
namespace core = pran::core;

// A large fleet and many instances per seed keep the solve-time
// distribution, which is heavy-tailed in branch-and-bound nodes, about the
// same from one seed to the next.
constexpr int kFleetCells = 512;

/// Distinct instances per seed; runs cycle through them.
std::size_t set_size(bool smoke) { return smoke ? 4 : 1024; }

/// Instance `j` of the seed's set: 6 or 7 cells of the seeded fleet with
/// their expected demand at an hour of the busy day (08:00 to 22:00), on
/// n/2 + 1 two-core servers, so that packings need two to four servers.
/// Demands are rounded to 0.1 MOP per TTI: exact subset sums then never
/// land a hair above a server's budget, where the LP's feasibility
/// tolerance and placement_fits' 1e-9 disagree (MilpPlacer then aborts on
/// its own capacity check).
core::PlacementProblem make_instance(const pran::workload::Fleet& fleet,
                                     std::size_t j) {
  core::PlacementProblem p;
  const int cells = 6 + static_cast<int>(j % 2);
  const double hour = 8.0 + std::fmod(static_cast<double>(j) * 7.0 / 3.0, 14.0);
  for (int c = 0; c < cells; ++c) {
    const auto& cell =
        fleet.cells[(j * 5 + static_cast<std::size_t>(c)) % fleet.cells.size()];
    core::CellDemand d;
    d.cell_id = c;
    d.gops_per_tti = std::round(cell.expected_subframe_gops(hour) * 1e4) / 1e4;
    d.peak_subframe_gops = cell.peak_subframe_gops();
    p.cells.push_back(d);
  }
  for (int s = 0; s < cells / 2 + 1; ++s) {
    pran::cluster::ServerSpec spec;
    spec.name = "server-" + std::to_string(s);
    spec.cores = 2;
    p.servers.push_back(spec);
  }
  return p;
}

}  // namespace

Result run_placement(const Args& args) {
  const std::size_t n = set_size(args.smoke);
  const auto fleet = pran::workload::make_fleet(kFleetCells, args.seed);
  std::vector<core::PlacementProblem> instances;
  for (std::size_t j = 0; j < n; ++j)
    instances.push_back(make_instance(fleet, j));
  const Value ref = load_reference(args.refs, args.seed);

  Result r;
  // Set-up: a fresh placer and one untimed solve of an instance that is the
  // same for every seed.
  const core::PlacementProblem warm =
      make_instance(pran::workload::make_fleet(kFleetCells, 0), 0);
  pran::Samples setups;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    core::MilpPlacer placer;
    (void)placer.place(warm);
    setups.add(seconds_since(t0));
  }

  core::MilpPlacer placer;
  pran::Samples op_ms;
  double busy_s = 0.0;
  std::vector<int> objectives(n, -1);
  std::size_t done = 0;
  const std::size_t traced_count = args.trace ? n : 0;
  const auto t_start = Clock::now();
  while (args.trace ? done < traced_count
                    : seconds_since(t_start) < args.seconds || done == 0) {
    const std::size_t j = done % n;
    core::PlacementResult res;
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      res = placer.place(instances[j]);
    } catch (const std::exception& e) {
      threw = true;
      r.detail.set("error", Value(e.what()));
    }
    const double dt = seconds_since(t0);
    op_ms.add(dt * 1e3);
    busy_s += dt;
    ++r.attempted;
    // Proven optimal, fits, and the same powered-server count as every
    // earlier solve of this instance and as the reference.
    bool ok = !threw && res.feasible && res.proven_optimal &&
              core::placement_fits(instances[j], res.server_of_cell);
    const int obj = res.active_servers();
    if (objectives[j] < 0) objectives[j] = obj;
    else if (objectives[j] != obj) ok = false;
    if (!ref.is_null() && j < ref.items().size() &&
        static_cast<int>(ref.items()[j].as_number()) != obj)
      ok = false;
    if (!ok) ++r.failed;
    ++done;
  }
  if (!args.record.empty()) {
    Value fp = Value::array();
    for (std::size_t j = 0; j < n; ++j) {
      if (objectives[j] < 0)
        objectives[j] = placer.place(instances[j]).active_servers();
      fp.push_back(Value(objectives[j]));
    }
    write_fingerprint(args.record, fp);
  }

  r.metrics["setup_s"] = median(setups);
  r.metrics["ops_per_s"] = static_cast<double>(op_ms.count()) / busy_s;
  r.metrics["op_ms_p50"] = median(op_ms);
  double q = 0.0;
  r.metrics["op_ms_p95"] = tail(op_ms, &q);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.detail.set("op", Value("MilpPlacer::place solve"));
  r.detail.set("op_samples", Value(static_cast<int>(op_ms.count())));
  r.detail.set("op_ms_p95_quantile", Value(q));
  r.detail.set("setup_samples", Value(static_cast<int>(setups.count())));
  r.detail.set("reference", Value(ref.is_null() ? "none: internal checks only"
                                                : "matched per instance"));
  if (!args.trace) return r;

  // Traced pass: the placer's two steps called directly, model build and
  // branch-and-bound, with the assignment decoded as MilpPlacer does.
  Tracer tr(true);
  const auto n_root = tr.name("bench.solve");
  const auto n_build = tr.name("core.build_placement_model");
  const auto n_milp = tr.name("lp.milp_solve");
  const auto n_fits = tr.name("core.placement_fits");
  const pran::lp::MilpSolver solver{pran::lp::MilpOptions{}};
  double nodes = 0.0, pivots = 0.0;
  for (std::size_t j = 0; j < traced_count; ++j) {
    const auto& p = instances[j];
    Tracer::Scope root(tr, n_root);
    pran::lp::Model model;
    {
      Tracer::Scope s(tr, n_build);
      model = core::build_placement_model(p);
    }
    pran::lp::MilpResult milp;
    {
      Tracer::Scope s(tr, n_milp);
      milp = solver.solve(model);
    }
    nodes += static_cast<double>(milp.nodes);
    pivots += static_cast<double>(milp.lp_iterations);
    const std::size_t S = p.servers.size();
    std::vector<int> assignment(p.cells.size(), -1);
    if (milp.has_solution())
      for (std::size_t c = 0; c < p.cells.size(); ++c)
        for (std::size_t s = 0; s < S; ++s)
          if (milp.x[c * S + s] > 0.5 && assignment[c] < 0)
            assignment[c] = static_cast<int>(s);
    bool fits = false;
    {
      Tracer::Scope s(tr, n_fits);
      fits = core::placement_fits(p, assignment);
    }
    core::PlacementResult decoded;
    decoded.server_of_cell = assignment;
    if (milp.status != pran::lp::MilpStatus::kOptimal || !fits ||
        decoded.active_servers() != objectives[j])
      ++r.failed;
  }
  const auto t = tr.totals();
  auto& m = r.metrics;
  const double milp_s = t.at("lp.milp_solve").total_s;
  m["lp.milp_ms"] = milp_s * 1e3 / static_cast<double>(traced_count);
  m["lp.nodes"] = nodes;
  m["lp.pivots"] = pivots;
  m["lp.pivot_us"] = pivots > 0.0 ? milp_s * 1e6 / pivots : 0.0;
  m["core.model_build_us"] = t.at("core.build_placement_model").total_s * 1e6 /
                             static_cast<double>(traced_count);
  const double roots = tr.root_seconds();
  for (const auto& [layer, self] : tr.layer_self_seconds()) {
    if (layer == "bench") m["bench.uncovered_share"] = self / roots;
    else m[layer + ".self_share"] = self / roots;
  }
  m["bench.trace_overhead_share"] = (roots - busy_s) / busy_s;
  r.detail.set("traced_s", Value(roots));
  r.detail.set("untraced_s", Value(busy_s));
  if (!args.trace_out.empty()) tr.write(args.trace_out);
  return r;
}

}  // namespace perfbench
