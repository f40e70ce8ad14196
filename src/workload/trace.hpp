#pragma once

/// \file trace.hpp
/// Materialised load traces: per-cell expected load sampled on a fixed time
/// grid over a day. The pooling experiments operate on traces (compute
/// demand per time slot) rather than TTI-level simulation, matching how the
/// paper analysed operator data; TTI-level behaviour is covered by the
/// cluster executor experiments.

#include <string>
#include <vector>

#include "workload/traffic.hpp"

namespace pran::workload {

/// One cell's demand across the day on a uniform grid.
struct CellTrace {
  int cell_id = 0;
  SiteKind kind = SiteKind::kMixed;
  /// Expected giga-operations per subframe at each grid point.
  std::vector<double> gops;
  /// Expected PRB utilisation (0..1) at each grid point.
  std::vector<double> utilization;
};

/// A day of traces for a fleet, on a grid of `slots_per_day` points.
class DayTrace {
 public:
  /// Samples `fleet` every 24h/slots_per_day. `gops_samples` controls the
  /// Monte Carlo accuracy of the expected-cost estimate.
  static DayTrace from_fleet(const Fleet& fleet, int slots_per_day = 96,
                             int gops_samples = 32);

  int slots_per_day() const noexcept { return slots_; }
  double hour_of_slot(int slot) const;
  const std::vector<CellTrace>& cells() const noexcept { return cells_; }

  /// Sum of all cells' expected gops in a slot.
  double total_gops(int slot) const;

  /// Slot with the highest fleet-wide aggregate demand.
  int busiest_slot() const;

  /// CSV round trip (header: slot,hour,cell,kind,gops,utilization).
  std::string to_csv() const;
  static DayTrace from_csv(const std::string& csv);

 private:
  int slots_ = 0;
  std::vector<CellTrace> cells_;
};

}  // namespace pran::workload
