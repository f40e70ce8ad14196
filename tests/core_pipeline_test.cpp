// Tests for the programmable pipeline.

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "core/pipeline.hpp"

namespace pran::core {
namespace {

const lte::CellConfig kCell{};
const std::vector<lte::Allocation> kAllocs{{50, 20, 6}, {25, 10, 4}};

TEST(Pipeline, StandardMatchesCostModel) {
  lte::CostModel model;
  const auto pipeline = Pipeline::standard_uplink(model);
  EXPECT_EQ(pipeline.size(), lte::kStageCount);
  const double expected =
      model.subframe_cost(kCell, kAllocs, lte::Direction::kUplink).total();
  EXPECT_NEAR(pipeline.subframe_gops(kCell, kAllocs), expected, 1e-12);
  EXPECT_NEAR(pipeline.extra_gops(kCell, kAllocs, expected), 0.0, 1e-12);
}

TEST(Pipeline, StageNamesInOrder) {
  const auto p = Pipeline::standard_uplink();
  const auto names = p.stage_names();
  const std::vector<std::string> expected{"fft",   "chest",  "equalize",
                                          "demod", "decode", "mac"};
  EXPECT_EQ(names, expected);
}

TEST(Pipeline, AppendAddsCost) {
  auto p = Pipeline::standard_uplink();
  const double base = p.subframe_gops(kCell, kAllocs);
  p.append(stages::interference_cancellation());
  EXPECT_GT(p.subframe_gops(kCell, kAllocs), base);
  EXPECT_TRUE(p.contains("interference-cancellation"));
  EXPECT_NEAR(p.extra_gops(kCell, kAllocs, base),
              p.subframe_gops(kCell, kAllocs) - base, 1e-12);
}

TEST(Pipeline, InsertAfterPlacesStage) {
  auto p = Pipeline::standard_uplink();
  p.insert_after("equalize", stages::interference_cancellation());
  const auto names = p.stage_names();
  ASSERT_EQ(names[3], "interference-cancellation");
  EXPECT_EQ(names[2], "equalize");
}

TEST(Pipeline, InsertAfterUnknownThrows) {
  auto p = Pipeline::standard_uplink();
  EXPECT_THROW(p.insert_after("nope", stages::wideband_sounding()),
               pran::ContractViolation);
}

TEST(Pipeline, RemoveDropsCost) {
  auto p = Pipeline::standard_uplink();
  const double base = p.subframe_gops(kCell, kAllocs);
  p.remove("decode");
  EXPECT_LT(p.subframe_gops(kCell, kAllocs), base);
  EXPECT_FALSE(p.contains("decode"));
  EXPECT_THROW(p.remove("decode"), pran::ContractViolation);
}

TEST(Pipeline, RejectsDuplicatesAndInvalidStages) {
  auto p = Pipeline::standard_uplink();
  EXPECT_THROW(p.append(stages::interference_cancellation());
               p.append(stages::interference_cancellation()),
               pran::ContractViolation);
  EXPECT_THROW(p.append(StageSpec{"", [](auto&, auto) { return 0.0; }}),
               pran::ContractViolation);
  EXPECT_THROW(p.append(StageSpec{"x", nullptr}), pran::ContractViolation);
}

TEST(Pipeline, CopiesAreIndependent) {
  auto a = Pipeline::standard_uplink();
  auto b = a;
  b.append(stages::wideband_sounding());
  EXPECT_FALSE(a.contains("wideband-sounding"));
  EXPECT_TRUE(b.contains("wideband-sounding"));
}

TEST(Stages, InterferenceCancellationScalesWithPrbs) {
  const auto stage = stages::interference_cancellation();
  const std::vector<lte::Allocation> small{{10, 10, 4}};
  const std::vector<lte::Allocation> large{{100, 10, 4}};
  EXPECT_NEAR(stage.cost_fn(kCell, large) / stage.cost_fn(kCell, small), 10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(stage.cost_fn(kCell, {}), 0.0);
}

TEST(Stages, CompScalesWithClusterSize) {
  const auto two = stages::comp_combining(2);
  const auto four = stages::comp_combining(4);
  EXPECT_NEAR(four.cost_fn(kCell, kAllocs) / two.cost_fn(kCell, kAllocs), 2.0,
              1e-9);
  EXPECT_THROW(stages::comp_combining(1), pran::ContractViolation);
}

TEST(Stages, SoundingIsLoadIndependent) {
  const auto stage = stages::wideband_sounding();
  EXPECT_DOUBLE_EQ(stage.cost_fn(kCell, kAllocs), stage.cost_fn(kCell, {}));
  EXPECT_GT(stage.cost_fn(kCell, {}), 0.0);
}

TEST(Pipeline, CustomStageIsChargedExactlyItsOwnCost) {
  const double base =
      lte::CostModel{}.subframe_cost(kCell, kAllocs, lte::Direction::kUplink)
          .total();
  EXPECT_EQ(Pipeline::standard_uplink().extra_gops(kCell, kAllocs, base),
            0.0);
  const auto ic = stages::interference_cancellation();
  auto p = Pipeline::standard_uplink();
  p.insert_after("equalize", ic);
  EXPECT_EQ(p.extra_gops(kCell, kAllocs, base), ic.cost_fn(kCell, kAllocs));
  // A removed standard stage does not offset the custom stage's cost.
  p.remove("decode");
  EXPECT_EQ(p.extra_gops(kCell, kAllocs, base), ic.cost_fn(kCell, kAllocs));
}

TEST(Pipeline, ExtraGopsNeverNegative) {
  auto p = Pipeline::standard_uplink();
  p.remove("decode");  // cheaper than base
  const double base =
      lte::CostModel{}.subframe_cost(kCell, kAllocs, lte::Direction::kUplink)
          .total();
  EXPECT_DOUBLE_EQ(p.extra_gops(kCell, kAllocs, base), 0.0);
}

}  // namespace
}  // namespace pran::core
