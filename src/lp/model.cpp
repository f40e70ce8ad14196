#include "lp/model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace pran::lp {

Variable Model::add_variable(std::string name, double lower, double upper,
                             VarType type) {
  if (type == VarType::kBinary) {
    lower = std::max(lower, 0.0);
    upper = std::min(upper, 1.0);
  }
  PRAN_REQUIRE(std::isfinite(lower), "variable lower bound must be finite");
  PRAN_REQUIRE(lower <= upper, "variable bounds are crossed");
  variables_.push_back(VariableInfo{std::move(name), lower, upper, type});
  return Variable{static_cast<int>(variables_.size()) - 1};
}

Variable Model::add_binary(std::string name) {
  return add_variable(std::move(name), 0.0, 1.0, VarType::kBinary);
}

Variable Model::add_integer(std::string name, double lower, double upper) {
  return add_variable(std::move(name), lower, upper, VarType::kInteger);
}

Variable Model::add_continuous(std::string name, double lower, double upper) {
  return add_variable(std::move(name), lower, upper, VarType::kContinuous);
}

void Model::add_constraint(std::string name, Constraint constraint) {
  for (const auto& [v, c] : constraint.lhs.terms()) {
    PRAN_REQUIRE(v.index >= 0 && v.index < num_variables(),
                 "constraint references an unknown variable");
    (void)c;
  }
  constraints_.push_back(ConstraintInfo{std::move(name), std::move(constraint)});
}

void Model::set_objective(Sense sense, LinearExpr objective) {
  for (const auto& [v, c] : objective.terms()) {
    PRAN_REQUIRE(v.index >= 0 && v.index < num_variables(),
                 "objective references an unknown variable");
    (void)c;
  }
  sense_ = sense;
  objective_ = std::move(objective);
}

const VariableInfo& Model::variable(Variable v) const {
  PRAN_REQUIRE(v.index >= 0 && v.index < num_variables(),
               "unknown variable handle");
  return variables_[static_cast<std::size_t>(v.index)];
}

void Model::set_bounds(Variable v, double lower, double upper) {
  PRAN_REQUIRE(v.index >= 0 && v.index < num_variables(),
               "unknown variable handle");
  PRAN_REQUIRE(lower <= upper, "variable bounds are crossed");
  auto& info = variables_[static_cast<std::size_t>(v.index)];
  info.lower = lower;
  info.upper = upper;
}

double Model::objective_value(const std::vector<double>& x) const {
  PRAN_REQUIRE(x.size() == variables_.size(),
               "point dimension does not match the model");
  double value = objective_.constant();
  for (const auto& [v, c] : objective_.terms())
    value += c * x[static_cast<std::size_t>(v.index)];
  return value;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    const auto& info = variables_[i];
    if (x[i] < info.lower - tol || x[i] > info.upper + tol) return false;
    if (info.type != VarType::kContinuous &&
        std::abs(x[i] - std::round(x[i])) > tol)
      return false;
  }
  for (const auto& c : constraints_) {
    double lhs = c.constraint.lhs.constant();
    for (const auto& [v, coeff] : c.constraint.lhs.terms())
      lhs += coeff * x[static_cast<std::size_t>(v.index)];
    switch (c.constraint.relation) {
      case Relation::kLessEqual:
        if (lhs > c.constraint.rhs + tol) return false;
        break;
      case Relation::kGreaterEqual:
        if (lhs < c.constraint.rhs - tol) return false;
        break;
      case Relation::kEqual:
        if (std::abs(lhs - c.constraint.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace pran::lp
