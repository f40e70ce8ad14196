// Unit tests for the branch-and-bound MILP solver.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "lp/branch_and_bound.hpp"

namespace pran::lp {
namespace {

constexpr double kTol = 1e-5;

TEST(BranchAndBound, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=0? Enumerate:
  // ab:7 no(3+4=7>6); ac:3+2=5 ok obj 17; bc: 4+2=6 ok obj 20; abc: 9 no.
  Model m;
  const auto a = m.add_binary("a");
  const auto b = m.add_binary("b");
  const auto c = m.add_binary("c");
  m.add_constraint("cap", 3.0 * LinearExpr(a) + 4.0 * LinearExpr(b) +
                              2.0 * LinearExpr(c) <=
                          6.0);
  m.set_objective(Sense::kMaximize, 10.0 * LinearExpr(a) +
                                        13.0 * LinearExpr(b) +
                                        7.0 * LinearExpr(c));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, kTol);
  EXPECT_NEAR(r.x[0], 0.0, kTol);
  EXPECT_NEAR(r.x[1], 1.0, kTol);
  EXPECT_NEAR(r.x[2], 1.0, kTol);
}

TEST(BranchAndBound, IntegerRoundingMatters) {
  // max x + y s.t. 2x + 2y <= 5, integers -> LP gives 2.5 total, ILP 2.
  Model m;
  const auto x = m.add_integer("x", 0, 10);
  const auto y = m.add_integer("y", 0, 10);
  m.add_constraint("c", 2.0 * LinearExpr(x) + 2.0 * LinearExpr(y) <= 5.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, kTol);
}

TEST(BranchAndBound, MixedIntegerProblem) {
  // max 2x + 3y, x integer, y continuous; x + y <= 4.5, y <= 2.3.
  // Optimum: y = 2.3, x = floor(2.2) = 2 -> obj = 10.9.
  Model m;
  const auto x = m.add_integer("x", 0, 100);
  const auto y = m.add_continuous("y", 0, 2.3);
  m.add_constraint("c", LinearExpr(x) + LinearExpr(y) <= 4.5);
  m.set_objective(Sense::kMaximize, 2.0 * LinearExpr(x) + 3.0 * LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 2.3, kTol);
  EXPECT_NEAR(r.objective, 10.9, kTol);
}

TEST(BranchAndBound, DetectsInfeasible) {
  Model m;
  const auto x = m.add_binary("x");
  const auto y = m.add_binary("y");
  m.add_constraint("c1", LinearExpr(x) + LinearExpr(y) >= 3.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  EXPECT_EQ(MilpSolver{}.solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, InfeasibleOnlyInIntegers) {
  // 0.4 <= x <= 0.6 is LP-feasible but has no integer point.
  Model m;
  const auto x = m.add_integer("x", 0, 1);
  m.add_constraint("lo", LinearExpr(x) >= 0.4);
  m.add_constraint("hi", LinearExpr(x) <= 0.6);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  EXPECT_EQ(MilpSolver{}.solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, MinimizationSense) {
  // min 5x + 4y s.t. x + y >= 3, integers >= 0 -> 3*4 = 12 via y=3.
  Model m;
  const auto x = m.add_integer("x", 0, 10);
  const auto y = m.add_integer("y", 0, 10);
  m.add_constraint("c", LinearExpr(x) + LinearExpr(y) >= 3.0);
  m.set_objective(Sense::kMinimize, 5.0 * LinearExpr(x) + 4.0 * LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 12.0, kTol);
}

TEST(BranchAndBound, EqualityWithIntegers) {
  // 3x + 5y = 14, x,y in [0,10] integer: no wait 3*3+5*1=14 -> feasible.
  Model m;
  const auto x = m.add_integer("x", 0, 10);
  const auto y = m.add_integer("y", 0, 10);
  m.add_constraint("e", 3.0 * LinearExpr(x) + 5.0 * LinearExpr(y) == 14.0);
  m.set_objective(Sense::kMinimize, LinearExpr(x) + LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, kTol);
  EXPECT_NEAR(r.x[1], 1.0, kTol);
}

// The next six tests give branch and bound structure a presolve pass would
// strip (fixed columns, fractional integer boxes, singleton, redundant or
// impossible rows) and check it solves them on its own.

TEST(BranchAndBound, SolvesFixedColumn) {
  Model m;
  const auto x = m.add_continuous("x", 3.0, 3.0);
  const auto y = m.add_continuous("y", 0.0, 10.0);
  m.add_constraint("c", LinearExpr(x) + LinearExpr(y) <= 8.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x) + LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, kTol);
  EXPECT_NEAR(r.x[0], 3.0, kTol);
  EXPECT_NEAR(r.x[1], 5.0, kTol);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(BranchAndBound, SolvesFractionalIntegerBox) {
  // An integer in [0.4, 3.6], maximised: the best integer point is 3.
  Model m;
  const auto i = m.add_integer("i", 0.4, 3.6);
  m.set_objective(Sense::kMaximize, LinearExpr(i));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, kTol);
  EXPECT_NEAR(r.x[0], 3.0, kTol);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(BranchAndBound, DetectsIntegerBoxWithoutIntegerPoint) {
  Model m;
  const auto i = m.add_integer("i", 0.4, 0.6);
  m.set_objective(Sense::kMinimize, LinearExpr(i));
  EXPECT_EQ(MilpSolver{}.solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, SolvesSingletonRows) {
  // 2x <= 10 and x >= 2 are bounds written as rows.
  Model m;
  const auto x = m.add_continuous("x", 0.0, 100.0);
  m.add_constraint("ub", 2.0 * LinearExpr(x) <= 10.0);
  m.add_constraint("lb", LinearExpr(x) >= 2.0);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, kTol);
  EXPECT_NEAR(r.x[0], 5.0, kTol);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(BranchAndBound, HandlesRedundantAndImpossibleRows) {
  {
    // x + y <= 5 can never bind on two binaries.
    Model m;
    const auto x = m.add_binary("x");
    const auto y = m.add_binary("y");
    m.add_constraint("redundant", LinearExpr(x) + LinearExpr(y) <= 5.0);
    m.set_objective(Sense::kMaximize, LinearExpr(x));
    const auto r = MilpSolver{}.solve(m);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.objective, 1.0, kTol);
    EXPECT_TRUE(m.is_feasible(r.x));
  }
  {
    // a + b >= 3 can never hold on two binaries.
    Model m;
    const auto a = m.add_binary("a");
    const auto b = m.add_binary("b");
    m.add_constraint("impossible", LinearExpr(a) + LinearExpr(b) >= 3.0);
    m.set_objective(Sense::kMaximize, LinearExpr(a));
    EXPECT_EQ(MilpSolver{}.solve(m).status, MilpStatus::kInfeasible);
  }
}

TEST(BranchAndBound, SolvesAllFixedModel) {
  Model m;
  const auto x = m.add_continuous("x", 2.0, 2.0);
  m.set_objective(Sense::kMinimize, LinearExpr(x));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, kTol);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(BranchAndBound, NodeLimitReportsBoundAndIncumbent) {
  // A 12-item knapsack with the node budget strangled to the root: the
  // rounding heuristic should still produce an incumbent plus a bound.
  Model m;
  LinearExpr weight, value;
  for (int i = 0; i < 12; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    const auto v = m.add_binary(name);
    weight += (3.0 + (i * 7) % 5) * LinearExpr(v);
    value += (4.0 + (i * 11) % 7) * LinearExpr(v);
  }
  m.add_constraint("cap", weight <= 20.0);
  m.set_objective(Sense::kMaximize, value);

  MilpOptions opts;
  opts.max_nodes = 1;
  const auto r = MilpSolver{opts}.solve(m);
  ASSERT_TRUE(r.status == MilpStatus::kFeasible ||
              r.status == MilpStatus::kOptimal ||
              r.status == MilpStatus::kLimit);
  if (r.has_solution()) {
    EXPECT_TRUE(m.is_feasible(r.x));
    // Bound must dominate the incumbent for maximisation.
    EXPECT_GE(r.best_bound, r.objective - kTol);
  }
}

TEST(BranchAndBound, GapIsZeroWhenOptimal) {
  Model m;
  const auto x = m.add_integer("x", 0, 5);
  m.set_objective(Sense::kMaximize, LinearExpr(x));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.gap(), 0.0);
  EXPECT_NEAR(r.objective, 5.0, kTol);
}

TEST(BranchAndBound, ReportsNodeAndIterationCounts) {
  Model m;
  const auto x = m.add_integer("x", 0, 10);
  const auto y = m.add_integer("y", 0, 10);
  m.add_constraint("c", 7.0 * LinearExpr(x) + 5.0 * LinearExpr(y) <= 23.0);
  m.set_objective(Sense::kMaximize, 4.0 * LinearExpr(x) + 3.0 * LinearExpr(y));
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_GE(r.nodes, 1);
  EXPECT_GT(r.lp_iterations, 0);
  EXPECT_GE(r.solve_seconds, 0.0);
}

/// min k*y + extra over an integer y >= 0.5 with start y = 1: the root
/// relaxation sits half a unit below the start.
Model half_unit_model(double k, bool continuous_term, double constant) {
  Model m;
  const auto y = m.add_integer("y", 0, 5);
  LinearExpr objective = k * LinearExpr(y) + LinearExpr(constant);
  std::vector<double> start{1.0};
  if (continuous_term) {
    objective += LinearExpr(m.add_continuous("z", 0.0, 0.0));
    start.push_back(0.0);
  }
  m.add_constraint("half", LinearExpr(y) >= 0.5);
  m.set_objective(Sense::kMinimize, objective);
  m.set_start(start);
  return m;
}

TEST(BranchAndBound, IntegralObjectivePrunesOnAWholeUnit) {
  // Bound 0.5 cannot beat the start's 1 by a whole unit: proven at the
  // root.
  const auto r = MilpSolver{}.solve(half_unit_model(1.0, false, 0.0));
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_NEAR(r.objective, 1.0, kTol);
}

TEST(BranchAndBound, NonIntegralObjectiveKeepsTheExactPrune) {
  // A fractional coefficient, a continuous variable in the objective or a
  // fractional constant each turn the whole-unit rule off, so the root
  // branches (y <= 0 is infeasible, y >= 1 matches the start).
  struct Case {
    const char* what;
    double k;
    bool continuous_term;
    double constant;
    double optimum;
  };
  for (const Case& c : {Case{"fractional coefficient", 1.5, false, 0.0, 1.5},
                        Case{"continuous variable", 1.0, true, 0.0, 1.0},
                        Case{"fractional constant", 1.0, false, 0.5, 1.5}}) {
    const auto r =
        MilpSolver{}.solve(half_unit_model(c.k, c.continuous_term, c.constant));
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << c.what;
    EXPECT_EQ(r.nodes, 3) << c.what;
    EXPECT_NEAR(r.objective, c.optimum, kTol) << c.what;
  }
}

TEST(BranchAndBound, IntegralBoundRoundsUpOnlyPastTheTolerance) {
  // min y1 + y2 over 2*y1 + 2*y2 >= 4 + 1e-10: the relaxation's 2 + 5e-11
  // must stay 2, so the start at 3 is beaten by the integer point at 2.
  Model m;
  const auto y1 = m.add_integer("y1", 0, 3);
  const auto y2 = m.add_integer("y2", 0, 3);
  m.add_constraint("c", 2.0 * LinearExpr(y1) + 2.0 * LinearExpr(y2) >=
                            4.0 + 1e-10);
  m.set_objective(Sense::kMinimize, LinearExpr(y1) + LinearExpr(y2));
  m.set_start({3.0, 0.0});
  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, kTol);
  EXPECT_TRUE(m.is_feasible(r.x));
}

/// max 5a + 4b + 3c under 2a + 3b + c <= 4, a + b + 2c <= 3, binary.
Model small_knapsack() {
  Model m;
  const auto a = m.add_binary("a");
  const auto b = m.add_binary("b");
  const auto c = m.add_binary("c");
  m.add_constraint("w", 2.0 * LinearExpr(a) + 3.0 * LinearExpr(b) +
                            LinearExpr(c) <= 4.0);
  m.add_constraint("v", LinearExpr(a) + LinearExpr(b) + 2.0 * LinearExpr(c) <=
                            3.0);
  m.set_objective(Sense::kMaximize, 5.0 * LinearExpr(a) +
                                        4.0 * LinearExpr(b) +
                                        3.0 * LinearExpr(c));
  return m;
}

TEST(BranchAndBound, FeasibleStartIsTheFirstIncumbent) {
  Model m = small_knapsack();
  m.set_start({0.0, 1.0, 0.0});
  MilpOptions opts;
  opts.max_nodes = 0;  // no node solved: only the start can be reported
  const auto r = MilpSolver{opts}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kFeasible);
  EXPECT_EQ(r.x, m.start());
  EXPECT_NEAR(r.objective, 4.0, kTol);

  const auto full = MilpSolver{}.solve(m);
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_NEAR(full.objective, 8.0, kTol);  // a + c
}

TEST(BranchAndBound, InfeasibleStartIsIgnored) {
  Model m = small_knapsack();
  m.set_start({1.0, 1.0, 0.0});  // 2 + 3 > 4
  MilpOptions opts;
  opts.max_nodes = 0;
  const auto r = MilpSolver{opts}.solve(m);
  EXPECT_EQ(r.status, MilpStatus::kLimit);
  EXPECT_FALSE(r.has_solution());

  const auto full = MilpSolver{}.solve(m);
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_NEAR(full.objective, 8.0, kTol);
  EXPECT_TRUE(m.is_feasible(full.x));
}

}  // namespace
}  // namespace pran::lp
