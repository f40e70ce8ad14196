#pragma once

/// \file branch_and_bound.hpp
/// Branch-and-bound MILP solver on top of SimplexSolver — the offline
/// substitute for the commercial solver the paper used. Best-first search on
/// the LP-relaxation bound, most-fractional branching, and a
/// round-and-check primal heuristic that usually finds an incumbent at the
/// root. Exact on the small placement instances PRAN's controller solves;
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

  /// Solves `model` to optimality or until a limit fires. The model is
  /// copied internally; the argument is not modified.
  MilpResult solve(const Model& model) const;

 private:
  MilpOptions options_;
};

}  // namespace pran::lp
