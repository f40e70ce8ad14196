#include "lp/branch_and_bound.hpp"

#include <cmath>
#include <memory>
#include <queue>

#include "common/check.hpp"
#include "lp/simplex.hpp"
#include "telemetry/clock.hpp"

namespace pran::lp {

double MilpResult::gap() const noexcept {
  if (status == MilpStatus::kOptimal) return 0.0;
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

namespace {

/// Fractionality below which a relaxation value counts as integral; also
/// the margin by which a node's bound must beat the incumbent to be kept.
constexpr double kIntegralityTol = 1e-6;

/// A bound tightening that defines a node relative to the root model.
struct BoundChange {
  std::size_t var;
  double lower;
  double upper;
};

struct Node {
  std::vector<BoundChange> changes;
  /// The parent's optimal basis; null at the root, which is solved cold.
  std::shared_ptr<const Basis> basis;
  /// Bound on the subtree (internal minimise sense): the parent's
  /// relaxation objective until the node itself is solved.
  double bound;
  long seq;      ///< Insertion order, for deterministic tie-breaks.
};

/// Best-first order on the node bound, ties to the oldest node. With an
/// integral objective a bound counts rounded up, since bounds that round
/// to the same integer promise the same, and ties go to the newest node:
/// the search then dives, and a child usually re-solves from the tableau
/// its parent left.
struct NodeOrder {
  bool integral;
  double key(const Node& n) const noexcept {
    return integral ? std::ceil(n.bound - kIntegralityTol) : n.bound;
  }
  bool operator()(const Node& a, const Node& b) const noexcept {
    const double ka = key(a), kb = key(b);
    if (ka != kb) return ka > kb;
    return integral ? a.seq < b.seq : a.seq > b.seq;
  }
};

/// True when the objective takes only integer values at integer points:
/// an integer constant and integer coefficients on integer variables only.
bool has_integral_objective(const Model& model) {
  const LinearExpr& objective = model.objective();
  if (std::floor(objective.constant()) != objective.constant()) return false;
  for (const auto& [v, c] : objective.terms())
    if (model.variable(v).type == VarType::kContinuous || std::floor(c) != c)
      return false;
  return true;
}

}  // namespace

MilpResult MilpSolver::solve(const Model& root) const {
  PRAN_REQUIRE(root.num_variables() > 0, "model has no variables");
  const telemetry::Stopwatch stopwatch;
  auto elapsed = [&] { return stopwatch.elapsed_seconds(); };

  const double sense_sign = root.sense() == Sense::kMinimize ? 1.0 : -1.0;
  // Internal objective values are always "minimise": internal = sign * model.
  auto to_internal = [&](double v) { return sense_sign * v; };
  auto to_model = [&](double v) { return sense_sign * v; };

  Simplex simplex(root);
  MilpResult result;

  std::vector<std::size_t> int_vars;
  std::vector<double> root_lower, root_upper;
  for (std::size_t j = 0; j < root.variables().size(); ++j) {
    const auto& info = root.variables()[j];
    if (info.type != VarType::kContinuous) int_vars.push_back(j);
    root_lower.push_back(info.lower);
    root_upper.push_back(info.upper);
  }
  std::vector<double> weight(root_lower.size(), 0.0);
  for (const auto& [v, c] : root.objective().terms())
    weight[static_cast<std::size_t>(v.index)] = std::abs(c);
  std::vector<double> lower, upper;

  double incumbent_internal = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;

  auto try_incumbent = [&](const std::vector<double>& x) {
    const double internal = to_internal(root.objective_value(x));
    if (internal < incumbent_internal - 1e-12) {
      incumbent_internal = internal;
      incumbent_x = x;
    }
  };
  if (!root.start().empty() && root.is_feasible(root.start(), kFeasibilityTol))
    try_incumbent(root.start());

  // A node is kept only while its bound can beat the incumbent; with an
  // integral objective, only by a whole unit. Rounding up only past the
  // tolerance keeps a bound of 2 + 1e-10 at 2.
  const NodeOrder order{has_integral_objective(root)};
  auto cannot_improve = [&](const Node& node) {
    return order.key(node) >= incumbent_internal - kIntegralityTol;
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open(order);
  open.push(Node{{}, nullptr, -std::numeric_limits<double>::infinity(), 0});
  long seq = 1;
  double best_open_bound = -std::numeric_limits<double>::infinity();
  bool any_limit_hit = false;
  bool root_unbounded = false;

  while (!open.empty()) {
    if (result.nodes >= options_.max_nodes || elapsed() > options_.time_limit_s) {
      any_limit_hit = true;
      best_open_bound = order.key(open.top());
      break;
    }
    Node node = open.top();
    open.pop();

    // Bound pruning against the incumbent (queue is bound-ordered, but
    // the incumbent may have improved since this node was pushed).
    if (cannot_improve(node)) continue;

    lower = root_lower;
    upper = root_upper;
    for (const auto& ch : node.changes) {
      lower[ch.var] = ch.lower;
      upper[ch.var] = ch.upper;
    }
    const LpResult relax =
        node.basis ? simplex.solve(lower, upper, *node.basis) : simplex.solve();
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

    node.bound = to_internal(relax.objective);
    if (cannot_improve(node)) continue;

    // Find the fractional integer variable of largest objective weight,
    // the most fractional among equals.
    std::size_t branch_var = root_lower.size();
    double branch_val = 0.0;
    double best_frac = 0.0;
    for (const std::size_t j : int_vars) {
      const double v = relax.x[j];
      const double frac = std::abs(v - std::round(v));  // in [0, 0.5]
      if (frac <= kIntegralityTol) continue;
      const bool better =
          branch_var == root_lower.size() || weight[j] > weight[branch_var] ||
          (weight[j] == weight[branch_var] && frac > best_frac);
      if (better) {
        best_frac = frac;
        branch_var = j;
        branch_val = v;
      }
    }

    // Round the integer variables: an integral relaxation loses only its
    // tolerance noise, a fractional one gets a round-and-check try.
    std::vector<double> rounded = relax.x;
    for (const std::size_t j : int_vars) rounded[j] = std::round(rounded[j]);
    if (root.is_feasible(rounded, kFeasibilityTol)) try_incumbent(rounded);
    if (branch_var == root_lower.size()) continue;

    // Branch on floor / ceil of the fractional value within the node's
    // (possibly already tightened) bounds. Both children re-solve from this
    // node's basis.
    const auto basis = std::make_shared<const Basis>(simplex.basis());
    const double floor_v = std::floor(branch_val);
    const double ceil_v = std::ceil(branch_val);
    auto push_child = [&](double child_lower, double child_upper) {
      Node child{node.changes, basis, node.bound, seq++};
      child.changes.push_back(
          BoundChange{branch_var, child_lower, child_upper});
      open.push(std::move(child));
    };
    if (floor_v >= lower[branch_var] - kIntegralityTol)
      push_child(lower[branch_var], floor_v);
    if (ceil_v <= upper[branch_var] + kIntegralityTol)
      push_child(ceil_v, upper[branch_var]);
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
      open.empty() ? best_open_bound : order.key(open.top());
  if (have_incumbent)
    bound_internal = std::isfinite(bound_internal)
                         ? std::min(bound_internal, incumbent_internal)
                         : incumbent_internal;
  result.best_bound = to_model(bound_internal);
  result.status = have_incumbent ? MilpStatus::kFeasible : MilpStatus::kLimit;
  return result;
}

}  // namespace pran::lp
