// Tests for the multi-cell interference model.

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lte/interference.hpp"

namespace pran::lte {
namespace {

InterferenceMap two_cells(double spacing = 1000.0) {
  return InterferenceMap(linear_layout(2, spacing));
}

TEST(Interference, SingleCellReducesToSnr) {
  InterferenceMap map(linear_layout(1, 500.0));
  const units::Db sinr = map.sinr_db(200.0, 0.0, 0, {0.0});
  EXPECT_NEAR((sinr - snr_db(200.0)).value(), 0.0, 0.1);
}

TEST(Interference, NeighbourActivityDegradesSinr) {
  auto map = two_cells();
  // UE near cell 0 (at x=200).
  const units::Db quiet = map.sinr_db(200.0, 0.0, 0, {0.0, 0.0});
  const units::Db half = map.sinr_db(200.0, 0.0, 0, {0.0, 0.5});
  const units::Db busy = map.sinr_db(200.0, 0.0, 0, {0.0, 1.0});
  EXPECT_GT(quiet, half);
  EXPECT_GT(half, busy);
}

TEST(Interference, ServingCellOwnActivityIrrelevant) {
  auto map = two_cells();
  const units::Db a = map.sinr_db(200.0, 0.0, 0, {0.0, 0.5});
  const units::Db b = map.sinr_db(200.0, 0.0, 0, {1.0, 0.5});
  EXPECT_DOUBLE_EQ(a.value(), b.value());
}

TEST(Interference, EdgeUeSuffersMost) {
  auto map = two_cells();
  const std::vector<double> busy{1.0, 1.0};
  const units::Db near_sinr = map.sinr_db(100.0, 0.0, 0, busy);
  const units::Db edge_sinr = map.sinr_db(490.0, 0.0, 0, busy);
  EXPECT_GT(near_sinr, edge_sinr + units::Db{10.0});
  // At the exact midpoint with a full-power neighbour, SINR ~ 0 dB.
  const units::Db mid = map.sinr_db(500.0, 0.0, 0, busy);
  EXPECT_NEAR(mid.value(), 0.0, 1.0);
}

TEST(Interference, CqiImprovesWhenNeighbourMutes) {
  auto map = two_cells();
  const int busy = map.cqi_at(450.0, 0.0, 0, {0.0, 1.0});
  const int muted = map.cqi_at(450.0, 0.0, 0, {0.0, 0.0});
  EXPECT_GT(muted, busy);
}

TEST(Interference, ValidatesInput) {
  EXPECT_THROW(InterferenceMap({}), ContractViolation);
  EXPECT_THROW(InterferenceMap({{0, 0, 0}, {0, 10, 0}}), ContractViolation);
  auto map = two_cells();
  EXPECT_THROW(map.sinr_db(0, 0, 0, {0.5}), ContractViolation);
  EXPECT_THROW(map.sinr_db(0, 0, 0, {0.5, 1.5}), ContractViolation);
  EXPECT_THROW(map.sinr_db(0, 0, 7, {0.0, 0.0}), ContractViolation);
}

TEST(Layouts, LinearShape) {
  const auto line = linear_layout(4, 250.0);
  ASSERT_EQ(line.size(), 4u);
  EXPECT_DOUBLE_EQ(line[3].x_m, 750.0);
}

}  // namespace
}  // namespace pran::lte
