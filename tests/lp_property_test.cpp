// Property tests: the simplex and branch-and-bound solvers are
// cross-validated against exhaustive enumeration on randomly generated
// small instances. Parameterised over seeds so each instance is a distinct
// test case.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "lp/branch_and_bound.hpp"
#include "lp/simplex.hpp"

namespace pran::lp {
namespace {

/// "<prefix><i>", built by append: GCC 12's -Wrestrict misfires on
/// `const char* + std::string&&` in optimised builds.
std::string indexed(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// Random bounded MILP over binary variables with <= constraints; small
/// enough for exhaustive enumeration (n <= 12).
struct RandomBinaryInstance {
  Model model;
  int n = 0;
  std::vector<double> obj;                  // objective coefficients
  std::vector<std::vector<double>> rows;    // constraint coefficients
  std::vector<double> rhs;
  std::vector<int> fixed;                   // per variable: -1 free, else 0/1
};

RandomBinaryInstance make_binary_instance(std::uint64_t seed, int n,
                                          int n_rows) {
  pran::Rng rng(seed);
  RandomBinaryInstance inst;
  inst.n = n;
  inst.fixed.assign(static_cast<std::size_t>(n), -1);
  std::vector<Variable> vars;
  for (int j = 0; j < n; ++j)
    vars.push_back(inst.model.add_binary(indexed("b", j)));

  LinearExpr objective;
  for (int j = 0; j < n; ++j) {
    const double c = rng.uniform(-5.0, 10.0);
    inst.obj.push_back(c);
    objective += c * LinearExpr(vars[j]);
  }
  inst.model.set_objective(Sense::kMaximize, objective);

  for (int i = 0; i < n_rows; ++i) {
    LinearExpr row;
    inst.rows.emplace_back();
    double positive_sum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = rng.uniform(0.0, 4.0);
      inst.rows.back().push_back(a);
      positive_sum += a;
      row += a * LinearExpr(vars[j]);
    }
    const double b = rng.uniform(0.2, 0.8) * positive_sum;
    inst.rhs.push_back(b);
    inst.model.add_constraint(indexed("r", i), row <= b);
  }
  return inst;
}

/// Six binaries, about 30% of them pre-fixed to 0 or 1 as continuous
/// columns with equal bounds, under one capacity row. Fixed columns can
/// overfill the row on their own, so some instances are infeasible.
RandomBinaryInstance make_prefixed_instance(std::uint64_t seed) {
  pran::Rng rng(seed);
  RandomBinaryInstance inst;
  inst.n = 6;
  std::vector<Variable> vars;
  for (int j = 0; j < inst.n; ++j) {
    if (rng.bernoulli(0.3)) {
      const int v = rng.bernoulli(0.5) ? 1 : 0;
      inst.fixed.push_back(v);
      vars.push_back(inst.model.add_variable(indexed("f", j), v, v,
                                             VarType::kContinuous));
    } else {
      inst.fixed.push_back(-1);
      vars.push_back(inst.model.add_binary(indexed("b", j)));
    }
  }
  LinearExpr cap, objective;
  inst.rows.emplace_back();
  for (const Variable v : vars) {
    const double a = rng.uniform(0.5, 2.0);
    const double c = rng.uniform(-1.0, 3.0);
    inst.rows.back().push_back(a);
    inst.obj.push_back(c);
    cap += a * LinearExpr(v);
    objective += c * LinearExpr(v);
  }
  inst.rhs.push_back(rng.uniform(2.0, 6.0));
  inst.model.add_constraint("cap", cap <= inst.rhs.back());
  inst.model.set_objective(Sense::kMaximize, objective);
  return inst;
}

/// Exhaustive optimum over all 2^n assignments that respect the fixed
/// columns; nullopt when infeasible.
std::optional<double> brute_force(const RandomBinaryInstance& inst) {
  std::optional<double> best;
  for (unsigned mask = 0; mask < (1u << inst.n); ++mask) {
    bool ok = true;
    for (int j = 0; j < inst.n && ok; ++j) {
      const int f = inst.fixed[static_cast<std::size_t>(j)];
      ok = f < 0 || static_cast<int>((mask >> j) & 1u) == f;
    }
    for (std::size_t i = 0; i < inst.rows.size() && ok; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < inst.n; ++j)
        if (mask & (1u << j)) lhs += inst.rows[i][static_cast<std::size_t>(j)];
      ok = lhs <= inst.rhs[i] + 1e-9;
    }
    if (!ok) continue;
    double value = 0.0;
    for (int j = 0; j < inst.n; ++j)
      if (mask & (1u << j)) value += inst.obj[static_cast<std::size_t>(j)];
    if (!best || value > *best) best = value;
  }
  return best;
}

class MilpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpVsBruteForce, BinaryKnapsackFamily) {
  const std::uint64_t seed = GetParam();
  const int n = 4 + static_cast<int>(seed % 7);       // 4..10 variables
  const int rows = 1 + static_cast<int>(seed % 3);    // 1..3 constraints
  auto inst = make_binary_instance(seed * 7919 + 17, n, rows);

  const auto milp = MilpSolver{}.solve(inst.model);
  const auto expected = brute_force(inst);

  ASSERT_TRUE(expected.has_value());  // all-zero is always feasible here
  ASSERT_EQ(milp.status, MilpStatus::kOptimal)
      << "seed=" << seed << " n=" << n;
  EXPECT_NEAR(milp.objective, *expected, 1e-5) << "seed=" << seed;
  EXPECT_TRUE(inst.model.is_feasible(milp.x));
}

TEST_P(MilpVsBruteForce, PreFixedBinaryFamily) {
  const std::uint64_t seed = GetParam();
  const auto inst = make_prefixed_instance(seed * 977 + 5);

  const auto milp = MilpSolver{}.solve(inst.model);
  const auto expected = brute_force(inst);

  if (!expected) {
    EXPECT_EQ(milp.status, MilpStatus::kInfeasible) << "seed=" << seed;
    return;
  }
  ASSERT_EQ(milp.status, MilpStatus::kOptimal) << "seed=" << seed;
  EXPECT_NEAR(milp.objective, *expected, 1e-5) << "seed=" << seed;
  EXPECT_TRUE(inst.model.is_feasible(milp.x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 40));

/// Continuous LP over 3-7 variables in [0, ub_j] with 2-5 nonnegative <=
/// rows and a nonnegative objective to maximise. Draws from `rng`, which
/// the caller goes on using.
struct ContinuousInstance {
  Model model;
  int n = 0;
  int n_rows = 0;
  std::vector<double> ub, c, rhs;
  std::vector<std::vector<double>> rows;
};

ContinuousInstance make_continuous_instance(std::uint64_t seed,
                                            pran::Rng& rng) {
  ContinuousInstance inst;
  inst.n = 3 + static_cast<int>(seed % 5);
  inst.n_rows = 2 + static_cast<int>(seed % 4);
  const int n = inst.n;
  Model& m = inst.model;
  std::vector<Variable> vars;
  for (int j = 0; j < n; ++j) {
    inst.ub.push_back(rng.uniform(1.0, 10.0));
    vars.push_back(m.add_continuous(indexed("x", j), 0.0, inst.ub.back()));
  }
  for (int i = 0; i < inst.n_rows; ++i) {
    LinearExpr row;
    inst.rows.emplace_back();
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = rng.uniform(0.0, 3.0);
      inst.rows.back().push_back(a);
      sum += a * inst.ub[static_cast<std::size_t>(j)];
      row += a * LinearExpr(vars[j]);
    }
    inst.rhs.push_back(rng.uniform(0.3, 0.9) * sum);
    m.add_constraint(indexed("r", i), row <= inst.rhs.back());
  }
  LinearExpr objective;
  for (int j = 0; j < n; ++j) {
    inst.c.push_back(rng.uniform(0.0, 5.0));
    objective += inst.c.back() * LinearExpr(vars[j]);
  }
  m.set_objective(Sense::kMaximize, objective);
  return inst;
}

/// LP sanity: simplex optimum must (a) be feasible and (b) dominate every
/// random feasible point we can sample.
class SimplexDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexDominance, BeatsRandomFeasiblePoints) {
  const std::uint64_t seed = GetParam();
  pran::Rng rng(seed ^ 0xabcdefULL);
  const ContinuousInstance inst = make_continuous_instance(seed, rng);
  const Model& m = inst.model;
  const int n = inst.n;
  const int n_rows = inst.n_rows;
  const auto& ub = inst.ub;
  const auto& rows = inst.rows;
  const auto& rhs = inst.rhs;
  const auto& c = inst.c;

  const auto r = SimplexSolver{}.solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "seed=" << seed;
  ASSERT_TRUE(m.is_feasible(r.x, 1e-6));

  // Sample feasible points by scaling random directions into the polytope.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j)
      x[static_cast<std::size_t>(j)] =
          rng.uniform(0.0, ub[static_cast<std::size_t>(j)]);
    double worst_scale = 1.0;
    for (int i = 0; i < n_rows; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j)
        lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
               x[static_cast<std::size_t>(j)];
      if (lhs > rhs[static_cast<std::size_t>(i)])
        worst_scale =
            std::min(worst_scale, rhs[static_cast<std::size_t>(i)] / lhs);
    }
    double value = 0.0;
    for (int j = 0; j < n; ++j)
      value += c[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)] *
               worst_scale;
    EXPECT_LE(value, r.objective + 1e-6) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexDominance,
                         ::testing::Range<std::uint64_t>(0, 25));

/// Mixed-integer instances with general integers, validated by enumerating
/// the integer grid and solving the continuous remainder greedily (one
/// continuous variable, so the check is exact).
class MixedIntegerGrid : public ::testing::TestWithParam<std::uint64_t> {};

/// Integers i1, i2 in [0, 4] and a continuous y in [0, 10] under one
/// capacity row, maximised.
struct GridInstance {
  Model model;
  double a1, a2, ay, cap, c1, c2, cy;
};
constexpr int kGrid = 4;

GridInstance make_grid_instance(std::uint64_t seed) {
  pran::Rng rng(seed * 1315423911ULL + 3);
  GridInstance g;
  Model& m = g.model;
  const auto i1 = m.add_integer("i1", 0, kGrid);
  const auto i2 = m.add_integer("i2", 0, kGrid);
  const auto y = m.add_continuous("y", 0.0, 10.0);

  g.a1 = rng.uniform(0.5, 3.0);
  g.a2 = rng.uniform(0.5, 3.0);
  g.ay = rng.uniform(0.5, 3.0);
  g.cap = rng.uniform(5.0, 18.0);
  m.add_constraint("cap", g.a1 * LinearExpr(i1) + g.a2 * LinearExpr(i2) +
                              g.ay * LinearExpr(y) <=
                          g.cap);
  g.c1 = rng.uniform(1.0, 5.0);
  g.c2 = rng.uniform(1.0, 5.0);
  g.cy = rng.uniform(0.1, 4.0);
  m.set_objective(Sense::kMaximize, g.c1 * LinearExpr(i1) +
                                        g.c2 * LinearExpr(i2) +
                                        g.cy * LinearExpr(y));
  return g;
}

TEST_P(MixedIntegerGrid, MatchesGridEnumeration) {
  const std::uint64_t seed = GetParam();
  const GridInstance g = make_grid_instance(seed);
  const Model& m = g.model;
  const int grid = kGrid;
  const double a1 = g.a1, a2 = g.a2, ay = g.ay, cap = g.cap;
  const double c1 = g.c1, c2 = g.c2, cy = g.cy;

  const auto r = MilpSolver{}.solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);

  double best = -1.0;
  for (int v1 = 0; v1 <= grid; ++v1) {
    for (int v2 = 0; v2 <= grid; ++v2) {
      const double slack = cap - a1 * v1 - a2 * v2;
      if (slack < 0) continue;
      const double yy = std::min(10.0, slack / ay);
      best = std::max(best, c1 * v1 + c2 * v2 + cy * yy);
    }
  }
  EXPECT_NEAR(r.objective, best, 1e-5) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedIntegerGrid,
                         ::testing::Range<std::uint64_t>(0, 25));

/// Warm re-solves: after random bound tightenings, a re-solve from the
/// last optimal basis (as branch and bound does for a child) must reach the
/// same status as a cold solve of the tightened model, and the same
/// objective within 1e-9. Each family tightens its model eight times in a
/// chain, re-solving each step from the previous optimal basis.
class WarmResolve : public ::testing::TestWithParam<std::uint64_t> {};

void check_warm_resolves(const Model& model, std::uint64_t seed) {
  pran::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  Simplex simplex(model);
  const LpResult root = simplex.solve();
  if (root.status != LpStatus::kOptimal) return;
  Basis basis = simplex.basis();
  std::vector<double> lower, upper;
  for (const auto& v : model.variables()) {
    lower.push_back(v.lower);
    upper.push_back(v.upper);
  }
  for (int step = 0; step < 8; ++step) {
    // Tighten one or two variables: integers to an integer sub-range,
    // continuous ones to a random sub-interval.
    const int changes = 1 + static_cast<int>(rng.uniform_int(0, 1));
    for (int k = 0; k < changes; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, model.num_variables() - 1));
      double a = 0.0, b = 0.0;
      if (model.variables()[j].type == VarType::kContinuous) {
        a = rng.uniform(lower[j], upper[j]);
        b = rng.uniform(lower[j], upper[j]);
      } else {
        const double lo = std::ceil(lower[j]), hi = std::floor(upper[j]);
        if (lo > hi) continue;
        const auto span = static_cast<std::int64_t>(hi - lo);
        a = lo + static_cast<double>(rng.uniform_int(0, span));
        b = lo + static_cast<double>(rng.uniform_int(0, span));
      }
      lower[j] = std::min(a, b);
      upper[j] = std::max(a, b);
    }
    Model tightened = model;
    for (int j = 0; j < model.num_variables(); ++j)
      tightened.set_bounds(Variable{j}, lower[static_cast<std::size_t>(j)],
                           upper[static_cast<std::size_t>(j)]);

    const LpResult warm = simplex.solve(lower, upper, basis);
    const LpResult cold = SimplexSolver{}.solve(tightened);
    ASSERT_EQ(warm.status, cold.status) << "seed=" << seed << " step=" << step;
    if (cold.status != LpStatus::kOptimal) return;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9)
        << "seed=" << seed << " step=" << step;
    for (std::size_t j = 0; j < lower.size(); ++j) {
      EXPECT_GE(warm.x[j], lower[j] - 1e-9) << "seed=" << seed;
      EXPECT_LE(warm.x[j], upper[j] + 1e-9) << "seed=" << seed;
    }
    basis = simplex.basis();
  }
}

TEST_P(WarmResolve, BinaryKnapsackFamily) {
  const std::uint64_t seed = GetParam();
  const int n = 4 + static_cast<int>(seed % 7);
  const int rows = 1 + static_cast<int>(seed % 3);
  check_warm_resolves(make_binary_instance(seed * 7919 + 17, n, rows).model,
                      seed);
}

TEST_P(WarmResolve, PreFixedBinaryFamily) {
  const std::uint64_t seed = GetParam();
  check_warm_resolves(make_prefixed_instance(seed * 977 + 5).model, seed);
}

TEST_P(WarmResolve, ContinuousFamily) {
  const std::uint64_t seed = GetParam();
  pran::Rng rng(seed ^ 0xabcdefULL);
  check_warm_resolves(make_continuous_instance(seed, rng).model, seed);
}

TEST_P(WarmResolve, MixedIntegerGridFamily) {
  const std::uint64_t seed = GetParam();
  check_warm_resolves(make_grid_instance(seed).model, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmResolve,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace pran::lp
