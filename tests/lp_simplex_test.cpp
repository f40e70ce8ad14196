// Unit tests for the two-phase primal simplex.

#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace pran::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  const auto y = m.add_continuous("y", 0, kInfinity);
  m.add_constraint("c1", LinearExpr(x) <= 4.0);
  m.add_constraint("c2", 2.0 * LinearExpr(y) <= 12.0);
  m.add_constraint("c3", 3.0 * LinearExpr(x) + 2.0 * LinearExpr(y) <= 18.0);
  m.set_objective(Sense::kMaximize, 3.0 * LinearExpr(x) + 5.0 * LinearExpr(y));

  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, kTol);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 6.0, kTol);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2  -> x=10, y=0? obj: coefficient on
  // x is cheaper, so x=10,y=0 with x>=2 satisfied; obj=20.
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  const auto y = m.add_continuous("y", 0, kInfinity);
  m.add_constraint("sum", LinearExpr(x) + LinearExpr(y) >= 10.0);
  m.add_constraint("minx", LinearExpr(x) >= 2.0);
  m.set_objective(Sense::kMinimize, 2.0 * LinearExpr(x) + 3.0 * LinearExpr(y));

  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, kTol);
  EXPECT_NEAR(r.x[0], 10.0, kTol);
  EXPECT_NEAR(r.x[1], 0.0, kTol);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + y s.t. x + 2y = 8, x - y = 2 -> y=2, x=4, obj=6.
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  const auto y = m.add_continuous("y", 0, kInfinity);
  m.add_constraint("e1", LinearExpr(x) + 2.0 * LinearExpr(y) == 8.0);
  m.add_constraint("e2", LinearExpr(x) - LinearExpr(y) == 2.0);
  m.set_objective(Sense::kMinimize, LinearExpr(x) + LinearExpr(y));

  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
  EXPECT_NEAR(r.x[1], 2.0, kTol);
  EXPECT_NEAR(r.objective, 6.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  m.add_constraint("lo", LinearExpr(x) >= 5.0);
  m.add_constraint("hi", LinearExpr(x) <= 3.0);
  m.set_objective(Sense::kMinimize, LinearExpr(x));
  EXPECT_EQ(SimplexSolver{}.solve(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  const auto y = m.add_continuous("y", 0, kInfinity);
  m.add_constraint("c", LinearExpr(x) - LinearExpr(y) <= 1.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(y));
  EXPECT_EQ(SimplexSolver{}.solve(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RespectsVariableBounds) {
  // max x + y with 1 <= x <= 3, 2 <= y <= 5 and no constraints.
  Model m;
  const auto x = m.add_continuous("x", 1.0, 3.0);
  const auto y = m.add_continuous("y", 2.0, 5.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(y));
  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, kTol);
  EXPECT_NEAR(r.x[1], 5.0, kTol);
}

TEST(Simplex, HandlesNegativeLowerBounds) {
  // min x s.t. x >= -4 (bound), x + y >= 0, y <= 1 -> x=-1 when y=1.
  Model m;
  const auto x = m.add_continuous("x", -4.0, kInfinity);
  const auto y = m.add_continuous("y", 0.0, 1.0);
  m.add_constraint("c", LinearExpr(x) + LinearExpr(y) >= 0.0);
  m.set_objective(Sense::kMinimize, LinearExpr(x));
  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -1.0, kTol);
}

TEST(Simplex, HandlesDegenerateProblem) {
  // Klee-Minty-style degeneracy should still terminate via Bland fallback.
  Model m;
  std::vector<Variable> v;
  const int n = 6;
  for (int i = 0; i < n; ++i)
    v.push_back(m.add_continuous(std::string("x").append(std::to_string(i)),
                                 0, kInfinity));
  LinearExpr obj;
  for (int i = 0; i < n; ++i) {
    LinearExpr row;
    for (int j = 0; j < i; ++j)
      row += std::pow(2.0, i - j + 1) * LinearExpr(v[j]);
    row += LinearExpr(v[i]);
    m.add_constraint(std::string("c").append(std::to_string(i)),
                     row <= std::pow(5.0, i + 1));
    obj += std::pow(2.0, n - 1 - i) * LinearExpr(v[i]);
  }
  m.set_objective(Sense::kMaximize, obj);
  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, std::pow(5.0, n), 1e-3);
}

TEST(Simplex, ConstantInObjectiveIsCarried) {
  Model m;
  const auto x = m.add_continuous("x", 0.0, 2.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(7.0));
  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 9.0, kTol);
}

TEST(Simplex, RedundantEqualityRowsAreHandled) {
  // x + y = 4 twice (redundant equality forces artificial expulsion with a
  // dependent row).
  Model m;
  const auto x = m.add_continuous("x", 0, kInfinity);
  const auto y = m.add_continuous("y", 0, kInfinity);
  m.add_constraint("e1", LinearExpr(x) + LinearExpr(y) == 4.0);
  m.add_constraint("e2", LinearExpr(x) + LinearExpr(y) == 4.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
}

}  // namespace
}  // namespace pran::lp
