#pragma once

/// \file link.hpp
/// Radio-link abstraction: distance-dependent path loss, SNR, and the
/// Shannon-derived spectral efficiency used to pick a UE's CQI/MCS. The
/// model is the standard 3GPP urban-macro evaluation setup; absolute values
/// are only inputs to the compute-cost model, so fidelity of *shape*
/// (efficiency falls with distance, saturates near the cell) is what
/// matters.
///
/// All dB/dBm, Hz, and bit/s quantities cross this API as strong unit
/// types (common/units.hpp): a path loss cannot be added to a linear
/// power, and a byte-per-second rate cannot slip into `prbs_for_rate`.

#include <array>

#include "common/units.hpp"
#include "lte/mcs.hpp"

namespace pran::lte {

/// Link-budget parameters with 3GPP urban-macro defaults.
struct LinkBudget {
  /// Effective per-PRB transmit power. 17 dBm/PRB (~37 dBm across a
  /// 100-PRB carrier) calibrates the cell so CQI spans the full table:
  /// 15 near the site, ~8 at 800 m, out-of-range beyond ~2 km.
  units::Db tx_power_dbm{17.0};
  units::Db noise_figure_db{7.0};  ///< Receiver noise figure.
  units::Hertz bandwidth_per_prb_hz{180e3};
  double implementation_margin = 0.75;  ///< Fraction of Shannon achieved.
  double max_spectral_eff = 5.5547;     ///< Cap at CQI-15 efficiency.
};

/// Path loss for distance `meters` (>= 1), 3GPP UMa:
/// 128.1 + 37.6 log10(d_km).
units::Db pathloss_db(double meters);

/// Thermal noise power (dBm) over `bandwidth` at 290 K, plus the noise
/// figure.
units::Db noise_power_dbm(units::Hertz bandwidth, units::Db noise_figure);

/// Per-PRB SNR at `meters` from the antenna under `budget`.
units::Db snr_db(double meters, const LinkBudget& budget = {});

/// Attenuated-Shannon spectral efficiency (bits per symbol) for a given
/// SNR, capped at the table maximum.
double spectral_efficiency(units::Db snr, const LinkBudget& budget = {});

/// End-to-end convenience: distance -> CQI (0..15).
int cqi_at_distance(double meters, const LinkBudget& budget = {});

/// Where `cqi_at_distance` steps down under the default LinkBudget: entry
/// k - 1 is the farthest distance (m) that still reaches CQI k, k = 1..15.
/// Found once per process, on first use, by bisection over the doubles
/// that calls cqi_at_distance itself, which stays the definition.
const std::array<double, 15>& cqi_step_distances();

/// cqi_at_distance(meters) under the default LinkBudget, by at most 15
/// compares against cqi_step_distances() instead of the log/pow chain.
int lookup_cqi_at_distance(double meters);

/// Achievable rate for one PRB at the given MCS (TTI = 1 ms).
units::BitRate prb_rate_bps(int mcs_index);

/// PRBs needed to carry `rate` at the given MCS (ceil); 0 for rate 0.
units::PrbCount prbs_for_rate(units::BitRate rate, int mcs_index);

}  // namespace pran::lte
