#pragma once

/// \file model.hpp
/// Mixed-integer linear program container. Plays the role CPLEX's model API
/// played in the paper's experiments: formulations are built through
/// add_variable / add_constraint and handed to SimplexSolver (LP relaxation)
/// or MilpSolver (branch and bound).

#include <limits>
#include <string>
#include <vector>

#include "lp/expr.hpp"

namespace pran::lp {

enum class VarType { kContinuous, kInteger, kBinary };
enum class Sense { kMinimize, kMaximize };

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Absolute slack within which a point meets a bound, a constraint or
/// integrality. MilpSolver accepts incumbents at this tolerance, so code
/// that re-checks a solver solution must allow it too.
inline constexpr double kFeasibilityTol = 1e-6;

struct VariableInfo {
  std::string name;
  double lower = 0.0;
  double upper = kInfinity;
  VarType type = VarType::kContinuous;
};

struct ConstraintInfo {
  std::string name;
  Constraint constraint;
};

class Model {
 public:
  /// Adds a variable; binary variables get bounds clamped to [0, 1].
  /// Lower bound must be finite and <= upper.
  Variable add_variable(std::string name, double lower, double upper,
                        VarType type);

  /// Convenience wrappers.
  Variable add_binary(std::string name);
  Variable add_integer(std::string name, double lower, double upper);
  Variable add_continuous(std::string name, double lower, double upper);

  void add_constraint(std::string name, Constraint constraint);

  /// Sets the objective; expression constant is carried into reported
  /// objective values.
  void set_objective(Sense sense, LinearExpr objective);

  int num_variables() const noexcept {
    return static_cast<int>(variables_.size());
  }
  int num_constraints() const noexcept {
    return static_cast<int>(constraints_.size());
  }

  const VariableInfo& variable(Variable v) const;
  const std::vector<VariableInfo>& variables() const noexcept {
    return variables_;
  }
  const std::vector<ConstraintInfo>& constraints() const noexcept {
    return constraints_;
  }
  Sense sense() const noexcept { return sense_; }
  const LinearExpr& objective() const noexcept { return objective_; }

  /// Tightens a variable's bounds (used by branch and bound). New bounds
  /// must stay within [current lower, current upper] ordering (lo <= hi is
  /// checked; crossing bounds indicate an infeasible branch and are allowed
  /// to be rejected by the caller instead).
  void set_bounds(Variable v, double lower, double upper);

  /// Evaluates the objective (including constant) at a point.
  double objective_value(const std::vector<double>& x) const;

  /// True if `x` satisfies all constraints and bounds within `tol`
  /// (integrality of integer variables included).
  bool is_feasible(const std::vector<double>& x,
                   double tol = kFeasibilityTol) const;

 private:
  std::vector<VariableInfo> variables_;
  std::vector<ConstraintInfo> constraints_;
  LinearExpr objective_;
  Sense sense_ = Sense::kMinimize;
};

}  // namespace pran::lp
