#pragma once

/// \file simplex.hpp
/// Two-phase primal simplex over a dense tableau.
///
/// Solves the continuous (LP) relaxation of a Model: integer/binary types
/// are ignored, bounds are honoured by variable shifting plus explicit
/// upper-bound rows. Dantzig pricing with a Bland's-rule fallback after a
/// fixed number of pivots in a phase guarantees termination on degenerate
/// problems; a solve that exhausts its pivot budget reports
/// kIterationLimit. Dense storage is deliberate — PRAN's placement instances are a
/// few hundred variables, where dense pivoting is both simple and fast.

#include <vector>

#include "lp/model.hpp"

namespace pran::lp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;     ///< Values per model variable (when optimal).
  double objective = 0.0;    ///< In the model's own sense.
  long iterations = 0;       ///< Total simplex pivots (both phases).
};

class SimplexSolver {
 public:
  /// Solves the LP relaxation of `model`.
  LpResult solve(const Model& model) const;
};

}  // namespace pran::lp
