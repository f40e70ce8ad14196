#pragma once

/// \file traffic.hpp
/// Per-cell traffic model: turns a diurnal profile into concrete per-TTI
/// uplink allocations (UE count, per-UE PRBs and MCS) and into the expected
/// processing load the controller plans against.
///
/// UEs arrive per TTI as a Poisson process whose intensity tracks the
/// diurnal profile; each UE draws a service class (heavy / medium / light,
/// a 25/25/50 mix of rate demands), a random position that fixes its
/// CQI/MCS through the link model, and a decoder-iteration count that grows
/// with the code rate.
///
/// The link chain never changes during a run, so a UE's grade is looked
/// up rather than computed: position -> CQI in lte::cqi_step_distances(),
/// then (service class, CQI) -> MCS, PRBs and code rate in a per-process
/// table built once from lte::mcs_from_cqi, lte::prbs_for_rate and
/// lte::mcs. The draws are exactly those of evaluating the chain per UE.

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lte/cost_model.hpp"
#include "lte/link.hpp"
#include "workload/diurnal.hpp"

namespace pran::workload {

/// A service class: demanded rate plus mix weight.
struct ServiceClass {
  const char* name;
  units::BitRate rate_bps;
  double weight;
};

/// The 25/25/50 heavy/medium/light mix (20 / 5 / 1 Mb/s) every cell draws
/// from.
const std::vector<ServiceClass>& default_service_mix();

/// Static description of one cell site.
struct CellSite {
  int cell_id = 0;
  lte::CellConfig config;
  SiteKind kind = SiteKind::kMixed;
  double peak_prb_utilization = 0.85;  ///< Fraction of PRBs busy at peak.
  double radius_m = 800.0;             ///< UE placement radius.
  double min_distance_m = 30.0;
};

/// Samples subframes for one cell. Deterministic given the seed.
class TrafficModel {
 public:
  TrafficModel(CellSite site, DiurnalProfile profile, lte::CostModel cost,
               std::uint64_t seed);

  const CellSite& site() const noexcept { return site_; }
  const DiurnalProfile& profile() const noexcept { return profile_; }

  /// Expected fraction of this cell's PRBs in use at `hour`.
  double expected_utilization(double hour) const;

  /// Draws the uplink allocations for one TTI at `hour`. Total PRBs never
  /// exceed the cell's bandwidth (excess arrivals are clipped, as a real
  /// scheduler would defer them).
  std::vector<lte::Allocation> sample_subframe(double hour);

  /// Expected giga-operations of one uplink subframe at `hour`, estimated
  /// by averaging `samples` draws from a throwaway generator (does not
  /// perturb this model's stream).
  double expected_subframe_gops(double hour, int samples = 64) const;

  /// Worst-case (all PRBs at top MCS) subframe cost, for peak provisioning.
  double peak_subframe_gops() const;

 private:
  std::vector<lte::Allocation> sample_subframe_with(double hour,
                                                    Rng& rng) const;

  CellSite site_;
  DiurnalProfile profile_;
  lte::CostModel cost_;
  double mean_prbs_per_ue_ = 0.0;  ///< Calibrated at construction.
  Rng rng_;
};

/// Log-normal sigma of the per-cell jitter make_fleet applies to each
/// canonical diurnal profile.
inline constexpr double kProfileJitterSigma = 0.15;

/// Builds a fleet of heterogeneous cell sites: site kinds are assigned
/// round-robin over {office, residential, mixed, transport} and each cell's
/// profile is jittered so no two cells are identical.
struct Fleet {
  std::vector<TrafficModel> cells;
};
Fleet make_fleet(int num_cells, std::uint64_t seed,
                 lte::CellConfig config = {},
                 double peak_prb_utilization = 0.85);

}  // namespace pran::workload
