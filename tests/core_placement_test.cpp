// Tests for the placement problem, MILP formulation and placers.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/placement.hpp"

namespace pran::core {
namespace {

cluster::ServerSpec server(double gops_per_tti_budget) {
  // One core whose per-TTI budget equals the requested value.
  return cluster::ServerSpec{"s", 1, gops_per_tti_budget * 1e3};
}

PlacementProblem small_problem() {
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 0.6, 1.0}, {1, 0.5, 1.0}, {2, 0.4, 1.0}, {3, 0.3, 1.0}};
  p.servers = {server(1.0), server(1.0), server(1.0), server(1.0)};
  return p;
}

TEST(PlacementProblem, LoadsAndFit) {
  const auto p = small_problem();
  const std::vector<int> ok{0, 1, 1, 0};     // 0.9 and 0.9
  const std::vector<int> bad{0, 0, 1, 1};    // 1.1 on server 0
  EXPECT_TRUE(placement_fits(p, ok));
  EXPECT_FALSE(placement_fits(p, bad));
  const auto loads = server_loads(p, ok);
  EXPECT_NEAR(loads[0], 0.9, 1e-12);
  EXPECT_NEAR(loads[1], 0.9, 1e-12);
  EXPECT_NEAR(loads[2], 0.0, 1e-12);
}

TEST(PlacementResult, ActiveServersAndMigrations) {
  PlacementResult r;
  r.server_of_cell = {0, 1, 1, 0};
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_EQ(r.migrations_from({0, 1, 0, 0}), 1);
  // Cells previously in outage (-1) do not count as migrations.
  EXPECT_EQ(r.migrations_from({-1, 1, 1, 0}), 0);
}

TEST(MilpPlacer, PacksMinimally) {
  const auto p = small_problem();  // total 1.8 -> 2 servers suffice
  MilpPlacer placer;
  const auto r = placer.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_TRUE(placement_fits(p, r.server_of_cell));
}

TEST(MilpPlacer, RespectsHeadroom) {
  auto p = small_problem();
  p.headroom = 0.7;  // budget 0.7 per server: 0.6+anything > 0.7
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 3);  // {0.6},{0.5},{0.4+0.3}
}

TEST(MilpPlacer, ReportsInfeasible) {
  PlacementProblem p;
  p.cells = {{0, 2.0, 2.0}};
  p.servers = {server(1.0)};
  const auto r = MilpPlacer{}.place(p);
  EXPECT_FALSE(r.feasible);
}

TEST(MilpPlacer, AcceptsLoadWithinSolverTolerance) {
  // {0.6, 0.4 + delta} on two unit servers. Below lp::kFeasibilityTol the
  // solver may pack both cells onto one server; placement_fits must accept
  // what the solver accepts instead of failing MilpPlacer's capacity check.
  for (const double delta : {5e-9, 5e-7, 9e-7, 2e-6}) {
    PlacementProblem p;
    p.headroom = 1.0;
    p.cells = {{0, 0.6, 1.0}, {1, 0.4 + delta, 1.0}};
    p.servers = {server(1.0), server(1.0)};
    PlacementResult r;
    ASSERT_NO_THROW(r = MilpPlacer{}.place(p)) << "delta=" << delta;
    ASSERT_TRUE(r.feasible) << "delta=" << delta;
    EXPECT_TRUE(placement_fits(p, r.server_of_cell)) << "delta=" << delta;
    if (delta > lp::kFeasibilityTol) {
      EXPECT_EQ(r.active_servers(), 2) << "delta=" << delta;
    }
  }
}

TEST(MilpPlacer, MigrationWeightPrefersStability) {
  auto p = small_problem();
  // Previous placement uses 2 servers in a specific pattern; an unweighted
  // optimum could permute servers freely. With migration cost, it must
  // keep the previous assignment (which is already optimal).
  p.previous = std::vector<int>{0, 1, 1, 0};
  p.migration_weight = 0.01;
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.migrations_from(*p.previous), 0);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(MilpPlacer, MigrationWeightDoesNotSacrificeServers) {
  // Previous placement wastes servers; migration weight is small enough
  // that consolidation still wins.
  auto p = small_problem();
  p.previous = std::vector<int>{0, 1, 2, 3};
  p.migration_weight = 0.01;
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(FirstFitPlacer, ProducesFeasiblePacking) {
  const auto p = small_problem();
  FirstFitPlacer placer;
  const auto r = placer.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(placement_fits(p, r.server_of_cell));
  EXPECT_FALSE(r.proven_optimal);
  // FFD on this instance is actually optimal.
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(FirstFitPlacer, StickyKeepsPreviousHomes) {
  auto p = small_problem();
  p.previous = std::vector<int>{3, 2, 1, 0};  // spread out but feasible
  const auto sticky = FirstFitPlacer(true).place(p);
  ASSERT_TRUE(sticky.feasible);
  EXPECT_EQ(sticky.migrations_from(*p.previous), 0);

  const auto fresh = FirstFitPlacer(false).place(p);
  ASSERT_TRUE(fresh.feasible);
  // Non-sticky re-packs into fewer servers, migrating cells.
  EXPECT_LT(fresh.active_servers(), 4);
}

TEST(FirstFitPlacer, ReportsInfeasibleWhenOverloaded) {
  PlacementProblem p;
  p.cells = {{0, 0.9, 1.0}, {1, 0.9, 1.0}, {2, 0.9, 1.0}};
  p.servers = {server(1.0), server(1.0)};
  const auto r = FirstFitPlacer{}.place(p);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.server_of_cell.empty());
}

TEST(FirstFitPlacer, OpensSmallestFittingServer) {
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 0.4, 0.5}};
  p.servers = {server(2.0), server(0.5)};  // big first, small second
  const auto r = FirstFitPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.server_of_cell[0], 1);  // picks the small one
}

TEST(StaticPeakPlacer, BudgetsAtPeak) {
  PlacementProblem p;
  p.headroom = 1.0;
  // Sustained 0.3 each but peak 0.9: peak sizing fits one per server.
  p.cells = {{0, 0.3, 0.9}, {1, 0.3, 0.9}, {2, 0.3, 0.9}};
  p.servers = {server(1.0), server(1.0), server(1.0)};
  const auto r = StaticPeakPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 3);  // no pooling under peak provisioning

  // The pooled optimum uses one server — the gap is PRAN's pooling gain.
  const auto pooled = MilpPlacer{}.place(p);
  ASSERT_TRUE(pooled.feasible);
  EXPECT_EQ(pooled.active_servers(), 1);
}

TEST(StaticPeakPlacer, RejectsPeakBelowSustained) {
  PlacementProblem p;
  p.cells = {{0, 0.5, 0.2}};
  p.servers = {server(1.0)};
  EXPECT_THROW(StaticPeakPlacer{}.place(p), pran::ContractViolation);
}

TEST(BuildModel, ShapesMatchFormulation) {
  const auto p = small_problem();
  const auto model = build_placement_model(p);
  // 4 cells * 4 servers + 4 activations.
  EXPECT_EQ(model.num_variables(), 20);
  // 4 assignment + 4 capacity + 3 symmetry rows.
  EXPECT_EQ(model.num_constraints(), 11);
  for (const auto& v : model.variables())
    EXPECT_NE(v.type, lp::VarType::kContinuous);
}

TEST(BuildModel, ValidatesInput) {
  PlacementProblem p;
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
  p = small_problem();
  p.headroom = 0.0;
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
  p = small_problem();
  p.previous = std::vector<int>{0};
  EXPECT_THROW(build_placement_model(p), pran::ContractViolation);
}

/// Property: on random instances, FFD is feasible whenever the MILP is, and
/// never uses fewer servers than the proven optimum.
class PlacerComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacerComparison, HeuristicDominatedByOptimum) {
  Rng rng(GetParam() * 2654435761ULL + 1);
  PlacementProblem p;
  p.headroom = 0.9;
  const int cells = 4 + static_cast<int>(rng.uniform_int(0, 6));
  const int servers = 3 + static_cast<int>(rng.uniform_int(0, 3));
  for (int c = 0; c < cells; ++c) {
    const double demand = rng.uniform(0.05, 0.5);
    p.cells.push_back({c, demand, demand * rng.uniform(1.0, 2.0)});
  }
  for (int s = 0; s < servers; ++s) p.servers.push_back(server(1.0));

  const auto exact = MilpPlacer{}.place(p);
  const auto heur = FirstFitPlacer{}.place(p);

  if (exact.feasible) {
    ASSERT_TRUE(exact.proven_optimal) << "seed " << GetParam();
    if (heur.feasible) {
      EXPECT_GE(heur.active_servers(), exact.active_servers());
      EXPECT_TRUE(placement_fits(p, heur.server_of_cell));
      // FFD's classical guarantee (11/9 OPT + 1) with slack.
      EXPECT_LE(heur.active_servers(),
                (11 * exact.active_servers()) / 9 + 1);
    }
  } else {
    EXPECT_FALSE(heur.feasible) << "heuristic found a packing MILP missed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerComparison,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace pran::core
