#include "lte/interference.hpp"

#include <cmath>
#include <set>

#include "common/check.hpp"

namespace pran::lte {

InterferenceMap::InterferenceMap(std::vector<SitePosition> cells,
                                 LinkBudget budget)
    : cells_(std::move(cells)), budget_(budget) {
  PRAN_REQUIRE(!cells_.empty(), "interference map needs at least one cell");
  std::set<int> ids;
  for (const auto& c : cells_)
    PRAN_REQUIRE(ids.insert(c.cell_id).second, "duplicate cell id");
}

std::size_t InterferenceMap::index_of(int cell_id) const {
  for (std::size_t i = 0; i < cells_.size(); ++i)
    if (cells_[i].cell_id == cell_id) return i;
  PRAN_REQUIRE(false, "unknown cell id");
  return 0;
}

units::Db InterferenceMap::received_dbm(double x_m, double y_m,
                                        int cell_id) const {
  const auto& c = cells_[index_of(cell_id)];
  const double dx = x_m - c.x_m;
  const double dy = y_m - c.y_m;
  const double dist = std::sqrt(dx * dx + dy * dy);
  return budget_.tx_power_dbm - pathloss_db(dist);
}

units::Db InterferenceMap::sinr_db(double x_m, double y_m, int serving_cell,
                                   const std::vector<double>& activity) const {
  PRAN_REQUIRE(activity.size() == cells_.size(),
               "activity vector must match the cell count");
  const std::size_t serving = index_of(serving_cell);

  // Powers only combine on the linear scale; the strong types make the
  // dBm -> mW hops explicit.
  const units::LinearPower signal =
      units::to_linear_power(received_dbm(x_m, y_m, serving_cell));
  const units::LinearPower noise = units::to_linear_power(noise_power_dbm(
      budget_.bandwidth_per_prb_hz, budget_.noise_figure_db));
  units::LinearPower interference{0.0};
  for (std::size_t j = 0; j < cells_.size(); ++j) {
    if (j == serving) continue;
    const double a = activity[j];
    PRAN_REQUIRE(a >= 0.0 && a <= 1.0, "activity outside [0, 1]");
    if (a == 0.0) continue;
    interference +=
        a * units::to_linear_power(received_dbm(x_m, y_m, cells_[j].cell_id));
  }
  return units::to_db(
      units::LinearPower{signal / (noise + interference)});
}

int InterferenceMap::cqi_at(double x_m, double y_m, int serving_cell,
                            const std::vector<double>& activity) const {
  return cqi_from_efficiency(spectral_efficiency(
      sinr_db(x_m, y_m, serving_cell, activity), budget_));
}

std::vector<SitePosition> linear_layout(int n, double spacing_m) {
  PRAN_REQUIRE(n >= 1, "layout needs at least one cell");
  PRAN_REQUIRE(spacing_m > 0.0, "spacing must be positive");
  std::vector<SitePosition> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.push_back(SitePosition{i, spacing_m * i, 0.0});
  return out;
}

}  // namespace pran::lte
