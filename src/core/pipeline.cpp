#include "core/pipeline.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::core {
namespace {

/// The lte::Stage a standard stage (one without a cost_fn) stands for.
lte::Stage standard_stage(const std::string& name) {
  for (std::size_t i = 0; i < lte::kStageCount; ++i) {
    const auto stage = static_cast<lte::Stage>(i);
    if (name == lte::stage_name(stage)) return stage;
  }
  PRAN_CHECK(false, "stage without a cost function is not a standard stage");
  return lte::Stage::kFft;
}

}  // namespace

Pipeline Pipeline::standard_uplink(lte::CostModel model) {
  Pipeline p;
  p.model_ = model;
  for (std::size_t i = 0; i < lte::kStageCount; ++i)
    p.stages_.push_back(
        StageSpec{lte::stage_name(static_cast<lte::Stage>(i)), nullptr});
  return p;
}

Pipeline& Pipeline::append(StageSpec stage) {
  PRAN_REQUIRE(!stage.name.empty(), "stage needs a name");
  PRAN_REQUIRE(stage.cost_fn != nullptr, "stage needs a cost function");
  PRAN_REQUIRE(!contains(stage.name), "duplicate stage name");
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::insert_after(const std::string& existing,
                                 StageSpec stage) {
  PRAN_REQUIRE(!stage.name.empty(), "stage needs a name");
  PRAN_REQUIRE(stage.cost_fn != nullptr, "stage needs a cost function");
  PRAN_REQUIRE(!contains(stage.name), "duplicate stage name");
  const auto it =
      std::find_if(stages_.begin(), stages_.end(),
                   [&](const StageSpec& s) { return s.name == existing; });
  PRAN_REQUIRE(it != stages_.end(), "insert_after: no such stage");
  stages_.insert(it + 1, std::move(stage));
  return *this;
}

Pipeline& Pipeline::remove(const std::string& name) {
  const auto it =
      std::find_if(stages_.begin(), stages_.end(),
                   [&](const StageSpec& s) { return s.name == name; });
  PRAN_REQUIRE(it != stages_.end(), "remove: no such stage");
  stages_.erase(it);
  return *this;
}

bool Pipeline::contains(const std::string& name) const {
  return std::any_of(stages_.begin(), stages_.end(),
                     [&](const StageSpec& s) { return s.name == name; });
}

std::vector<std::string> Pipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size());
  for (const auto& s : stages_) names.push_back(s.name);
  return names;
}

double Pipeline::subframe_gops(
    const lte::CellConfig& cell,
    std::span<const lte::Allocation> allocs) const {
  const lte::StageCost standard =
      model_.subframe_cost(cell, allocs, lte::Direction::kUplink);
  double total = 0.0;
  for (const auto& s : stages_)
    total += s.cost_fn ? s.cost_fn(cell, allocs)
                       : standard[standard_stage(s.name)];
  return total;
}

double Pipeline::extra_gops(const lte::CellConfig& cell,
                            std::span<const lte::Allocation> allocs,
                            double /*base_gops*/) const {
  double extra = 0.0;
  for (const auto& s : stages_)
    if (s.cost_fn) extra += s.cost_fn(cell, allocs);
  return extra;
}

namespace stages {

StageSpec interference_cancellation(double intensity) {
  PRAN_REQUIRE(intensity > 0.0, "intensity must be positive");
  return StageSpec{
      "interference-cancellation",
      [intensity](const lte::CellConfig& cell,
                  std::span<const lte::Allocation> allocs) {
        int prbs = 0;
        for (const auto& a : allocs) prbs += a.n_prb;
        const double ants = static_cast<double>(cell.antennas);
        // A second MMSE pass over the allocated band.
        return intensity * 14.0e3 * ants * ants *
               static_cast<double>(cell.mimo_layers) *
               static_cast<double>(prbs) / 1e9;
      }};
}

StageSpec comp_combining(int cooperating_cells) {
  PRAN_REQUIRE(cooperating_cells >= 2,
               "CoMP needs at least two cooperating cells");
  return StageSpec{
      "comp-combining",
      [cooperating_cells](const lte::CellConfig& cell,
                          std::span<const lte::Allocation> allocs) {
        int prbs = 0;
        for (const auto& a : allocs) prbs += a.n_prb;
        return 20.0e3 * static_cast<double>(cooperating_cells) *
               static_cast<double>(cell.antennas) *
               static_cast<double>(prbs) / 1e9;
      }};
}

StageSpec wideband_sounding() {
  return StageSpec{
      "wideband-sounding",
      [](const lte::CellConfig& cell, std::span<const lte::Allocation>) {
        return 30.0e3 * static_cast<double>(cell.antennas) *
               static_cast<double>(cell.n_prb) / 1e9;
      }};
}

}  // namespace stages
}  // namespace pran::core
