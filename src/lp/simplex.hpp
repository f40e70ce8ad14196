#pragma once

/// \file simplex.hpp
/// Bounded-variable simplex over a dense tableau.
///
/// Solves the continuous (LP) relaxation of a Model: integer/binary types
/// are ignored. Each constraint row gets one logical column, bounded
/// [0, inf) for an inequality and [0, 0] for an equality, so the tableau
/// has one row per constraint; variable bounds are not rows. A nonbasic
/// column sits at its lower or its upper bound.
///
/// A cold solve starts from the all-logical basis. When the model's start
/// point sits on a bound in every column and meets every row, that is a
/// feasible basis and the primal simplex goes on from there. Otherwise each
/// column starts at the bound its cost prefers, which is dual feasible
/// except for a column whose cost prefers an infinite bound: such a column
/// is priced at zero while the dual simplex finds a feasible point, and the
/// primal simplex then finishes on the true costs. A warm solve starts from
/// an earlier solve's basis under new bounds and re-optimises by the dual
/// simplex: changing a bound keeps an optimal basis dual feasible.
///
/// The dual simplex picks its leaving row by steepest edge (the row norms
/// of B^-1 sit in the logical columns); the primal simplex prices by
/// Dantzig's rule, and its ratio test flips the entering column to its
/// other bound when that bound comes first. Both fall back to Bland's rule
/// after a fixed number of pivots, which guarantees termination on
/// degenerate problems; a solve that exhausts its pivot budget reports
/// kIterationLimit. Dense storage is deliberate — PRAN's placement
/// instances are a few hundred columns and a few dozen rows, where dense
/// pivoting is both simple and fast.

#include <vector>

#include "lp/model.hpp"

namespace pran::lp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;     ///< Values per model variable (when optimal).
  double objective = 0.0;    ///< In the model's own sense.
  long iterations = 0;       ///< Simplex pivots and bound flips.
};

/// A simplex basis. Columns are the model's variables in order, then one
/// logical per constraint.
struct Basis {
  std::vector<int> basic;       ///< The basic column of each row.
  std::vector<bool> at_upper;   ///< Per column: nonbasic at its upper bound.
};

/// The simplex of one model, kept across solves so that a solve can start
/// from an earlier one's basis. Branch and bound builds one per MILP solve
/// and re-solves each node from its parent's basis.
class Simplex {
 public:
  explicit Simplex(const Model& model);

  /// Solves cold, from the all-logical basis, under the model's own bounds.
  LpResult solve();

  /// Re-optimises from `start`, a basis this simplex returned after an
  /// optimal solve, under `lower` and `upper` (one entry per model
  /// variable).
  LpResult solve(const std::vector<double>& lower,
                 const std::vector<double>& upper, const Basis& start);

  /// The basis the last solve ended in.
  Basis basis() const { return Basis{basic_, at_upper_}; }

 private:
  LpResult cold();
  LpResult optimise(bool repriced);
  void reset();
  bool load(const std::vector<int>& basic);
  void set_bounds(const std::vector<double>& lower,
                  const std::vector<double>& upper);
  void price();
  void compute_values();
  bool dual_feasible() const;
  LpStatus run_dual(long& iterations);
  LpStatus run_primal(long& iterations);
  void pivot(std::size_t row, std::size_t col);
  double nonbasic_value(std::size_t col) const {
    return at_upper_[col] ? upper_[col] : lower_[col];
  }
  double& at(std::size_t row, std::size_t col) {
    return tab_[row * stride_ + col];
  }
  double at(std::size_t row, std::size_t col) const {
    return tab_[row * stride_ + col];
  }

  std::size_t n_ = 0;       ///< Model variables.
  std::size_t m_ = 0;       ///< Constraint rows.
  std::size_t cols_ = 0;    ///< n_ + m_; column cols_ is B^-1 b.
  std::size_t stride_ = 0;  ///< cols_ + 1.
  double sense_sign_ = 1.0;
  double constant_ = 0.0;
  std::vector<double> initial_;  ///< [A | I | b] in the all-logical basis.
  std::vector<double> tab_;      ///< B^-1 [A | I | b].
  std::vector<double> cost_;     ///< Minimisation cost per column.
  std::vector<double> d_;        ///< Reduced cost per column.
  std::vector<double> model_lower_, model_upper_;
  std::vector<double> start_;          ///< The model's start point.
  std::vector<double> lower_, upper_;  ///< Per column.
  std::vector<double> value_;          ///< Basic value per row.
  std::vector<int> basic_;             ///< Basic column per row.
  std::vector<int> row_of_;            ///< Per column: its row, or -1.
  std::vector<bool> at_upper_;
  std::vector<char> wanted_;           ///< Work buffer of load().
  std::vector<std::size_t> nonzero_;   ///< Work buffer of pivot().
  long pivots_since_reset_ = 0;
};

/// Cold-solves the LP relaxation of a model.
class SimplexSolver {
 public:
  /// Solves the LP relaxation of `model`.
  LpResult solve(const Model& model) const;
};

}  // namespace pran::lp
