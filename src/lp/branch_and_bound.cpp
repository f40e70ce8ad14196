#include "lp/branch_and_bound.hpp"

#include <cmath>
#include <queue>

#include "common/check.hpp"
#include "lp/presolve.hpp"
#include "telemetry/clock.hpp"

namespace pran::lp {

double MilpResult::gap() const noexcept {
  if (status == MilpStatus::kOptimal) return 0.0;
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

namespace {

/// Bound tightenings that define a node relative to the root model.
struct BoundChange {
  Variable var;
  double lower;
  double upper;
};

struct Node {
  std::vector<BoundChange> changes;
  double bound;  ///< Parent relaxation objective (internal minimise sense).
  long seq;      ///< Insertion order, for deterministic tie-breaks.
};

struct WorseBound {
  bool operator()(const Node& a, const Node& b) const noexcept {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.seq > b.seq;
  }
};

/// Applies a node's bound changes to a scratch copy of the root model.
void apply_changes(Model& model, const std::vector<BoundChange>& changes) {
  for (const auto& ch : changes) model.set_bounds(ch.var, ch.lower, ch.upper);
}

}  // namespace

MilpResult MilpSolver::solve(const Model& model) const {
  PRAN_REQUIRE(model.num_variables() > 0, "model has no variables");
  if (!options_.presolve) return solve_impl(model);

  const PresolveResult pre = ::pran::lp::presolve(model);
  if (pre.infeasible) {
    MilpResult result;
    result.status = MilpStatus::kInfeasible;
    return result;
  }
  MilpResult result = solve_impl(*pre.model);
  if (result.has_solution()) {
    result.x = pre.restore(result.x);
    // Objective/bound already include the substituted constants (the
    // reduced model's objective carries them).
  }
  return result;
}

MilpResult MilpSolver::solve_impl(const Model& root) const {
  PRAN_REQUIRE(root.num_variables() > 0, "model has no variables");
  const telemetry::Stopwatch stopwatch;
  auto elapsed = [&] { return stopwatch.elapsed_seconds(); };

  const double sense_sign = root.sense() == Sense::kMinimize ? 1.0 : -1.0;
  // Internal objective values are always "minimise": internal = sign * model.
  auto to_internal = [&](double v) { return sense_sign * v; };
  auto to_model = [&](double v) { return sense_sign * v; };

  SimplexSolver lp_solver(options_.lp);
  MilpResult result;

  std::vector<int> int_vars;
  for (int j = 0; j < root.num_variables(); ++j)
    if (root.variables()[static_cast<std::size_t>(j)].type !=
        VarType::kContinuous)
      int_vars.push_back(j);

  double incumbent_internal = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;

  auto try_incumbent = [&](const std::vector<double>& x) {
    const double internal = to_internal(root.objective_value(x));
    if (internal < incumbent_internal - 1e-12) {
      incumbent_internal = internal;
      incumbent_x = x;
    }
  };

  std::priority_queue<Node, std::vector<Node>, WorseBound> open;
  open.push(Node{{}, -std::numeric_limits<double>::infinity(), 0});
  long seq = 1;
  double best_open_bound = -std::numeric_limits<double>::infinity();
  bool any_limit_hit = false;
  bool root_unbounded = false;

  while (!open.empty()) {
    if (result.nodes >= options_.max_nodes || elapsed() > options_.time_limit_s) {
      any_limit_hit = true;
      best_open_bound = open.top().bound;
      break;
    }
    Node node = open.top();
    open.pop();

    // Bound pruning against the incumbent (queue is bound-ordered, but
    // the incumbent may have improved since this node was pushed).
    if (node.bound >= incumbent_internal - options_.int_tol) continue;

    Model scratch = root;
    apply_changes(scratch, node.changes);

    const LpResult relax = lp_solver.solve(scratch);
    ++result.nodes;
    result.lp_iterations += relax.iterations;

    if (relax.status == LpStatus::kInfeasible) continue;
    if (relax.status == LpStatus::kUnbounded) {
      // With all-finite integer bounds this means the continuous part is
      // unbounded: the MILP is unbounded too.
      root_unbounded = true;
      break;
    }
    if (relax.status == LpStatus::kIterationLimit) {
      any_limit_hit = true;
      continue;
    }

    const double node_bound = to_internal(relax.objective);
    if (node_bound >= incumbent_internal - options_.int_tol) continue;

    // Find the most fractional integer variable.
    int branch_var = -1;
    double branch_val = 0.0;
    double best_frac_score = options_.int_tol;
    for (int j : int_vars) {
      const double v = relax.x[static_cast<std::size_t>(j)];
      const double frac = std::abs(v - std::round(v));
      const double score = std::min(frac, 1.0 - frac) + frac * 0.0;
      if (frac > options_.int_tol && score > best_frac_score) {
        best_frac_score = score;
        branch_var = j;
        branch_val = v;
      }
    }

    if (branch_var < 0) {
      // Integral relaxation: round off the tolerance noise and accept.
      std::vector<double> x = relax.x;
      for (int j : int_vars)
        x[static_cast<std::size_t>(j)] =
            std::round(x[static_cast<std::size_t>(j)]);
      if (root.is_feasible(x, kFeasibilityTol)) try_incumbent(x);
      continue;
    }

    if (options_.rounding_heuristic) {
      std::vector<double> rounded = relax.x;
      for (int j : int_vars)
        rounded[static_cast<std::size_t>(j)] =
            std::round(rounded[static_cast<std::size_t>(j)]);
      if (root.is_feasible(rounded, kFeasibilityTol)) try_incumbent(rounded);
    }

    // Branch on floor / ceil of the fractional value, keeping the scratch
    // model's (possibly already tightened) bounds as the base.
    const auto& info =
        scratch.variables()[static_cast<std::size_t>(branch_var)];
    const double floor_v = std::floor(branch_val);
    const double ceil_v = std::ceil(branch_val);

    if (floor_v >= info.lower - options_.int_tol) {
      Node child = node;
      child.changes.push_back(
          BoundChange{Variable{branch_var}, info.lower, floor_v});
      child.bound = node_bound;
      child.seq = seq++;
      open.push(std::move(child));
    }
    if (ceil_v <= info.upper + options_.int_tol) {
      Node child = node;
      child.changes.push_back(
          BoundChange{Variable{branch_var}, ceil_v, info.upper});
      child.bound = node_bound;
      child.seq = seq++;
      open.push(std::move(child));
    }
  }

  result.solve_seconds = elapsed();

  if (root_unbounded) {
    result.status = MilpStatus::kUnbounded;
    return result;
  }

  const bool have_incumbent = !incumbent_x.empty();
  if (have_incumbent) {
    result.x = incumbent_x;
    result.objective = to_model(incumbent_internal);
  }

  if (!any_limit_hit && open.empty()) {
    result.status =
        have_incumbent ? MilpStatus::kOptimal : MilpStatus::kInfeasible;
    result.best_bound = result.objective;
    return result;
  }

  // A limit fired: the proof is incomplete. The optimum lies either at the
  // incumbent or inside an open subtree, so the valid global bound is the
  // smaller of the incumbent value and the best open-node bound.
  double bound_internal =
      open.empty() ? best_open_bound : open.top().bound;
  if (have_incumbent)
    bound_internal = std::isfinite(bound_internal)
                         ? std::min(bound_internal, incumbent_internal)
                         : incumbent_internal;
  result.best_bound = to_model(bound_internal);
  result.status = have_incumbent ? MilpStatus::kFeasible : MilpStatus::kLimit;
  return result;
}

}  // namespace pran::lp
