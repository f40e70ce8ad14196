#pragma once

/// \file interference.hpp
/// Multi-cell downlink interference.
///
/// A UE served by cell c sees SINR = S_c / (N0 + sum_{j != c} I_j), where
/// each neighbour's interference I_j is its received power scaled by its
/// *activity factor* (fraction of PRBs it is transmitting on). This load
/// coupling is what makes cross-cell coordination valuable — and PRAN's
/// centralisation makes such coordination a software feature: every cell's
/// scheduler runs in the same cluster, so muting patterns (almost-blank
/// subframes) or CoMP sets are just data-plane configuration. Experiment
/// E15 quantifies the cell-edge gain.

#include <vector>

#include "lte/link.hpp"

namespace pran::lte {

/// A cell site on the plane.
struct SitePosition {
  int cell_id = 0;
  double x_m = 0.0;
  double y_m = 0.0;
};

class InterferenceMap {
 public:
  /// `cells` must be non-empty with distinct ids.
  explicit InterferenceMap(std::vector<SitePosition> cells,
                           LinkBudget budget = {});

  const std::vector<SitePosition>& cells() const noexcept { return cells_; }

  /// Received power in dBm at (x, y) from the given cell.
  units::Db received_dbm(double x_m, double y_m, int cell_id) const;

  /// SINR at (x, y) served by `serving_cell`, given each cell's
  /// activity factor in [0, 1] (index-aligned with cells()). The serving
  /// cell's own activity does not matter for its UE's SINR.
  units::Db sinr_db(double x_m, double y_m, int serving_cell,
                    const std::vector<double>& activity) const;

  /// Convenience: SINR -> CQI through the attenuated-Shannon mapping.
  int cqi_at(double x_m, double y_m, int serving_cell,
             const std::vector<double>& activity) const;

 private:
  std::size_t index_of(int cell_id) const;
  std::vector<SitePosition> cells_;
  LinkBudget budget_;
};

/// Standard layouts for experiments: `n` cells evenly spaced on a line
/// with `spacing_m` between neighbours.
std::vector<SitePosition> linear_layout(int n, double spacing_m);

}  // namespace pran::lte
