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

TEST(MilpPlacer, ProvesAFivePackingOnFourServersInfeasible) {
  // placement_milp seed 104, instance 490: no two of the five largest cells
  // share a 0.24 budget, so they need five servers and there are four.
  PlacementProblem p;
  for (const double d : {0.1238, 0.1357, 0.0748, 0.1171, 0.1322, 0.1360})
    p.cells.push_back({static_cast<int>(p.cells.size()), d, d});
  for (int s = 0; s < 4; ++s) p.servers.push_back(cluster::ServerSpec{"s", 2});
  ASSERT_NEAR(p.headroom * p.servers[0].gops_per_tti(), 0.24, 1e-12);

  const auto model = build_placement_model(p);
  EXPECT_TRUE(model.start().empty());
  EXPECT_EQ(lp::MilpSolver{}.solve(model).status, lp::MilpStatus::kInfeasible);
  EXPECT_FALSE(FirstFitPlacer{}.place(p).feasible);
  EXPECT_FALSE(MilpPlacer{}.place(p).feasible);
}

TEST(MilpPlacer, MigrationWeightPrefersStability) {
  auto p = small_problem();
  // Previous placement uses 2 servers in a specific pattern; an unweighted
  // optimum could permute servers freely. With migration cost, it must
  // keep the previous assignment (which is already optimal).
  p.previous = std::vector<int>{0, 1, 1, 0};
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.migrations_from(*p.previous), 0);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(MilpPlacer, MigrationWeightDoesNotSacrificeServers) {
  // Previous placement wastes servers; a server outweighs every
  // migration, so consolidation still wins.
  auto p = small_problem();
  p.previous = std::vector<int>{0, 1, 2, 3};
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 2);
}

TEST(MilpPlacer, KeepsCellsOnAHostServerBesideIdenticalIdleOnes) {
  // Four small cells sit on server 3 of four identical servers. Moving
  // them to server 0 powers as many servers and migrates all four, so
  // the optimum leaves them where they are. Symmetry rows y_0 >= ... >=
  // y_3 over the whole run would cut that optimum off: the hosting server
  // is not interchangeable with the idle ones.
  auto p = small_problem();
  p.cells = {{0, 0.2, 1.0}, {1, 0.2, 1.0}, {2, 0.2, 1.0}, {3, 0.2, 1.0}};
  p.previous = std::vector<int>{3, 3, 3, 3};
  const auto sticky = FirstFitPlacer(true).place(p);
  ASSERT_EQ(sticky.server_of_cell, *p.previous);
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.server_of_cell, *p.previous);
  EXPECT_EQ(r.migrations_from(*p.previous), 0);
  EXPECT_EQ(r.active_servers(), 1);
}

TEST(MilpPlacer, MigrationWeightedOverflowIsProvenInFewNodes) {
  // An epoch of E9's day: ten cells, all last on server 0, whose total
  // (0.9633) just exceeds one 0.96 budget. The relaxation spills a sliver
  // of one cell onto a sliver of server 1; branching on the assignments
  // first would fix cell after cell before y_1, while branching on y_1
  // first proves "two servers, one move" in a few dozen nodes.
  PlacementProblem p;
  for (const double d : {0.0807, 0.0974, 0.0635, 0.1857, 0.0771, 0.0846,
                         0.0895, 0.1602, 0.0592, 0.0654})
    p.cells.push_back({static_cast<int>(p.cells.size()), d, 0.3339});
  for (int s = 0; s < 6; ++s) p.servers.push_back(cluster::ServerSpec{"s", 8});
  p.previous = std::vector<int>(p.cells.size(), 0);
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_EQ(r.migrations_from(*p.previous), 1);
  EXPECT_LE(r.milp_nodes, 100);
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

TEST(BuildModel, StartIsStickyFirstFitAndMeetsTheSymmetryRows) {
  auto p = small_problem();
  // Sticky first-fit keeps cells 0 and 2 on server 3 and cells 1 and 3 on
  // server 1. Those two hosted a cell last epoch, so the symmetry rows
  // left are y_0 >= y_2 between the idle ones, and y_1 >= y_0 and
  // y_3 >= y_0 for the hosting ones. The packing meets them as it stands.
  p.previous = std::vector<int>{3, 1, 3, 1};
  ASSERT_EQ(FirstFitPlacer(true).place(p).server_of_cell,
            (std::vector<int>{3, 1, 3, 1}));
  const auto model = build_placement_model(p);
  // 4 assignment + 4 capacity + 3 symmetry rows.
  EXPECT_EQ(model.num_constraints(), 11);
  const auto& start = model.start();
  ASSERT_EQ(start.size(), 20u);
  EXPECT_TRUE(model.is_feasible(start));
  const std::vector<double> y(start.begin() + 16, start.end());
  EXPECT_EQ(y, (std::vector<double>{0.0, 1.0, 0.0, 1.0}));
  EXPECT_EQ(start[0 * 4 + 3], 1.0);  // cell 0 on server 3
  EXPECT_EQ(start[1 * 4 + 1], 1.0);  // cell 1 on server 1
}

TEST(BuildModel, StartHandsUnhostedCellsToAnIdleHostingServer) {
  // Cell 0, last on server 1, no longer fits a unit server and goes to the
  // large server 2; cell 1 then opens server 0. Server 1 hosted a cell
  // last epoch and server 0 did not, so the row y_1 >= y_0 holds at an
  // optimum; the start moves cell 1 to server 1 to meet it.
  PlacementProblem p;
  p.headroom = 1.0;
  p.cells = {{0, 1.5, 1.5}, {1, 0.6, 0.6}};
  p.servers = {server(1.0), server(1.0), server(2.0)};
  p.previous = std::vector<int>{1, -1};
  ASSERT_EQ(FirstFitPlacer(true).place(p).server_of_cell,
            (std::vector<int>{2, 0}));
  const auto model = build_placement_model(p);
  const auto& start = model.start();
  ASSERT_EQ(start.size(), 9u);
  EXPECT_TRUE(model.is_feasible(start));
  EXPECT_EQ(start[0 * 3 + 2], 1.0);  // cell 0 on server 2
  EXPECT_EQ(start[1 * 3 + 1], 1.0);  // cell 1 on server 1
  const auto r = MilpPlacer{}.place(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.active_servers(), 2);
  EXPECT_EQ(r.migrations_from(*p.previous), 1);
}

TEST(BuildModel, OneServerOutweighsEveryMigrationAt128Cells) {
  // 128 cells split over two half-size servers fit together on the third,
  // larger one. Moving all of them there powers one server fewer, and
  // that must price below staying: a per-move weight of 0.01 (128 x 0.01
  // > 1) would not.
  constexpr int kCells = 128;
  PlacementProblem p;
  p.headroom = 1.0;
  for (int c = 0; c < kCells; ++c) p.cells.push_back({c, 0.005, 0.01});
  p.servers = {server(0.5), server(0.5), server(1.0)};
  std::vector<int> stay(kCells);
  for (int c = 0; c < kCells; ++c) stay[static_cast<std::size_t>(c)] = c % 2;
  p.previous = stay;
  const std::vector<int> moved(kCells, 2);

  const auto model = build_placement_model(p);
  auto objective_at = [&](const std::vector<int>& placement) {
    std::vector<double> x(static_cast<std::size_t>(model.num_variables()),
                          0.0);
    for (std::size_t c = 0; c < placement.size(); ++c) {
      const auto s = static_cast<std::size_t>(placement[c]);
      x[c * 3 + s] = 1.0;
      x[kCells * 3 + s] = 1.0;
    }
    EXPECT_TRUE(model.is_feasible(x));
    return model.objective_value(x);
  };
  // Staying: two servers, no move. Moving: one server, 128 moves.
  EXPECT_EQ(objective_at(stay), 2.0 * (kCells + 1));
  EXPECT_EQ(objective_at(moved), 1.0 * (kCells + 1) + kCells);
  EXPECT_LT(objective_at(moved), objective_at(stay));
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

/// 4-10 cells of demand 0.05-0.5 on 3-6 unit servers.
PlacementProblem random_problem(std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 1);
  PlacementProblem p;
  p.headroom = 0.9;
  const int cells = 4 + static_cast<int>(rng.uniform_int(0, 6));
  const int servers = 3 + static_cast<int>(rng.uniform_int(0, 3));
  for (int c = 0; c < cells; ++c) {
    const double demand = rng.uniform(0.05, 0.5);
    p.cells.push_back({c, demand, demand * rng.uniform(1.0, 2.0)});
  }
  for (int s = 0; s < servers; ++s) p.servers.push_back(server(1.0));
  return p;
}

/// Property: on random instances, FFD is feasible whenever the MILP is, and
/// never uses fewer servers than the proven optimum.
class PlacerComparison : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacerComparison, HeuristicDominatedByOptimum) {
  const PlacementProblem p = random_problem(GetParam());
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

/// Property: with its node budget cut to the root, the MILP still places
/// every instance first-fit places, on no more servers.
TEST_P(PlacerComparison, MilpAtOneNodeIsNeverWorseThanFirstFit) {
  const PlacementProblem p = random_problem(GetParam());
  lp::MilpOptions opts;
  opts.max_nodes = 1;
  const auto exact = MilpPlacer{opts}.place(p);
  const auto heur = FirstFitPlacer{}.place(p);
  if (!heur.feasible) return;
  ASSERT_TRUE(exact.feasible) << "seed " << GetParam();
  EXPECT_TRUE(placement_fits(p, exact.server_of_cell));
  EXPECT_LE(exact.active_servers(), heur.active_servers());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerComparison,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace pran::core
