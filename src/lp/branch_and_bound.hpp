#pragma once

/// \file branch_and_bound.hpp
/// Branch-and-bound MILP solver on top of the bounded simplex — the offline
/// substitute for the commercial solver the paper used. Best-first search on
/// the LP-relaxation bound; it branches on the fractional integer variable
/// of largest objective weight, the most fractional among equals, so a
/// placement branches on server activations before assignments. One
/// Simplex is built per solve; the root is solved cold and every other
/// node is re-optimised by the dual simplex from its parent's basis under
/// its own bounds, so an open node stores only its bound changes and that
/// basis.
/// The model's start point, when feasible, is the first incumbent, and a
/// round-and-check heuristic tries each fractional relaxation. When every
/// objective term is an integer coefficient on an integer variable and the
/// constant is an integer, the objective takes only integer values: a node
/// is then pruned unless its bound can beat the incumbent by a whole unit,
/// and among nodes whose bounds round up alike the newest comes first, so
/// the search dives and a child mostly re-solves from the tableau its
/// parent left.
/// Exact on the small placement instances PRAN's controller solves;
/// node/time limits turn it into an anytime solver with a reported bound.

#include <vector>

#include "lp/model.hpp"

namespace pran::lp {

enum class MilpStatus {
  kOptimal,     ///< Proven optimal incumbent.
  kFeasible,    ///< Limit hit with an incumbent in hand.
  kInfeasible,  ///< No integer-feasible point exists.
  kUnbounded,   ///< LP relaxation unbounded.
  kLimit        ///< Limit hit without any incumbent.
};

struct MilpOptions {
  long max_nodes = 200000;
  double time_limit_s = 60.0;
};

struct MilpResult {
  MilpStatus status = MilpStatus::kLimit;
  std::vector<double> x;      ///< Incumbent (empty if none).
  double objective = 0.0;     ///< Incumbent objective, model sense.
  double best_bound = 0.0;    ///< Proven bound on the optimum, model sense.
  long nodes = 0;             ///< Branch-and-bound nodes solved.
  long lp_iterations = 0;     ///< Simplex pivots across all nodes.
  double solve_seconds = 0.0;

  bool has_solution() const noexcept {
    return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible;
  }
  /// Relative optimality gap |obj - bound| / max(1, |obj|); 0 when optimal.
  double gap() const noexcept;
};

class MilpSolver {
 public:
  explicit MilpSolver(MilpOptions options = {}) : options_(options) {}

  /// Solves `model` to optimality or until a limit fires. The argument is
  /// not modified.
  MilpResult solve(const Model& model) const;

 private:
  MilpOptions options_;
};

}  // namespace pran::lp
