// Unit tests for the Model container and LinearExpr algebra.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lp/model.hpp"

namespace pran::lp {
namespace {

TEST(LinearExpr, AccumulatesCoefficients) {
  Variable x{0}, y{1};
  LinearExpr e = 2.0 * LinearExpr(x) + 3.0 * LinearExpr(y) + LinearExpr(x);
  EXPECT_DOUBLE_EQ(e.terms().at(x), 3.0);
  EXPECT_DOUBLE_EQ(e.terms().at(y), 3.0);
  EXPECT_DOUBLE_EQ(e.constant(), 0.0);
}

TEST(LinearExpr, SubtractionAndNegation) {
  Variable x{0};
  LinearExpr e = LinearExpr(5.0) - 2.0 * LinearExpr(x);
  EXPECT_DOUBLE_EQ(e.constant(), 5.0);
  EXPECT_DOUBLE_EQ(e.terms().at(x), -2.0);
  LinearExpr n = -e;
  EXPECT_DOUBLE_EQ(n.constant(), -5.0);
  EXPECT_DOUBLE_EQ(n.terms().at(x), 2.0);
}

TEST(LinearExpr, ComparisonMovesConstantToRhs) {
  Variable x{0};
  Constraint c = (LinearExpr(x) + 3.0) <= 10.0;
  EXPECT_DOUBLE_EQ(c.rhs, 7.0);
  EXPECT_DOUBLE_EQ(c.lhs.constant(), 0.0);
  EXPECT_EQ(c.relation, Relation::kLessEqual);
}

TEST(Model, TracksVariableMetadata) {
  Model m;
  const auto x = m.add_binary("x");
  const auto y = m.add_integer("y", -2, 7);
  const auto z = m.add_continuous("z", 0.5, 1.5);
  EXPECT_EQ(m.num_variables(), 3);
  EXPECT_EQ(m.variable(x).type, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.variable(y).lower, -2.0);
  EXPECT_DOUBLE_EQ(m.variable(z).upper, 1.5);
}

TEST(Model, BinaryBoundsAreClamped) {
  Model m;
  const auto x = m.add_variable("x", -5.0, 5.0, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 0.0);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 1.0);
}

TEST(Model, RejectsCrossedBounds) {
  Model m;
  EXPECT_THROW(m.add_continuous("x", 2.0, 1.0), ContractViolation);
}

TEST(Model, RejectsForeignVariables) {
  Model m;
  (void)m.add_binary("x");
  Variable alien{42};
  EXPECT_THROW(m.add_constraint("bad", LinearExpr(alien) <= 1.0),
               ContractViolation);
}

TEST(Model, ObjectiveValueIncludesConstant) {
  Model m;
  const auto x = m.add_continuous("x", 0, 10);
  m.set_objective(Sense::kMinimize, 2.0 * LinearExpr(x) + LinearExpr(5.0));
  EXPECT_DOUBLE_EQ(m.objective_value({3.0}), 11.0);
}

TEST(Model, FeasibilityChecksEverything) {
  Model m;
  const auto x = m.add_integer("x", 0, 4);
  const auto y = m.add_continuous("y", 0, 4);
  m.add_constraint("sum", LinearExpr(x) + LinearExpr(y) <= 5.0);
  m.add_constraint("diff", LinearExpr(x) - LinearExpr(y) >= -1.0);
  EXPECT_TRUE(m.is_feasible({2.0, 3.0}));
  EXPECT_FALSE(m.is_feasible({2.5, 2.0}));  // integrality
  EXPECT_FALSE(m.is_feasible({2.0, 4.0}));  // sum constraint
  EXPECT_FALSE(m.is_feasible({0.0, 2.0}));  // diff constraint
  EXPECT_FALSE(m.is_feasible({5.0, 0.0}));  // bound
  EXPECT_FALSE(m.is_feasible({2.0}));       // dimension mismatch
}

TEST(Model, SetBoundsTightensForBranching) {
  Model m;
  const auto x = m.add_integer("x", 0, 10);
  m.set_bounds(x, 3.0, 7.0);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 3.0);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 7.0);
}

TEST(Model, StartPointMatchesTheVariables) {
  Model m;
  (void)m.add_binary("x");
  (void)m.add_binary("y");
  EXPECT_TRUE(m.start().empty());
  m.set_start({1.0, 0.0});
  EXPECT_EQ(m.start(), (std::vector<double>{1.0, 0.0}));
  EXPECT_THROW(m.set_start({1.0}), ContractViolation);
}

}  // namespace
}  // namespace pran::lp
