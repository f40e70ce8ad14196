#include "lte/link.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace pran::lte {

using units::BitRate;
using units::Db;
using units::Hertz;
using units::PrbCount;

Db pathloss_db(double meters) {
  PRAN_REQUIRE(meters >= 0.0, "distance must be non-negative");
  const double d_km = std::max(meters, 1.0) / 1000.0;
  return Db{128.1 + 37.6 * std::log10(std::max(d_km, 0.001))};
}

Db noise_power_dbm(Hertz bandwidth, Db noise_figure) {
  PRAN_REQUIRE(bandwidth > Hertz{0.0}, "bandwidth must be positive");
  // kTB at 290 K is -174 dBm/Hz.
  return Db{-174.0 + 10.0 * std::log10(bandwidth.value())} + noise_figure;
}

Db snr_db(double meters, const LinkBudget& budget) {
  const Db rx_dbm = budget.tx_power_dbm - pathloss_db(meters);
  return rx_dbm -
         noise_power_dbm(budget.bandwidth_per_prb_hz, budget.noise_figure_db);
}

double spectral_efficiency(Db snr, const LinkBudget& budget) {
  const double snr_linear = units::to_linear(snr);
  const double eff =
      budget.implementation_margin * std::log2(1.0 + snr_linear);
  return std::clamp(eff, 0.0, budget.max_spectral_eff);
}

int cqi_at_distance(double meters, const LinkBudget& budget) {
  return cqi_from_efficiency(spectral_efficiency(snr_db(meters, budget), budget));
}

namespace {

constexpr double kOutOfRange = 1e6;  // 1000 km

/// Farthest distance that still reaches `cqi` under the default budget.
/// Non-negative doubles order like their bit patterns, so the bisection
/// runs over those, from 0 m (CQI 15) to kOutOfRange (CQI 0): about 64
/// steps pin the exact double after which the CQI falls below `cqi`.
double farthest_distance_reaching(int cqi) {
  std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
  std::uint64_t hi = std::bit_cast<std::uint64_t>(kOutOfRange);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cqi_at_distance(std::bit_cast<double>(mid)) >= cqi)
      lo = mid;
    else
      hi = mid;
  }
  return std::bit_cast<double>(lo);
}

std::array<double, 15> make_cqi_step_distances() {
  PRAN_CHECK(cqi_at_distance(0.0) == 15 && cqi_at_distance(kOutOfRange) == 0,
             "default link budget must span CQI 15 down to out of range");
  std::array<double, 15> steps{};
  for (int k = 1; k <= 15; ++k)
    steps[static_cast<std::size_t>(k - 1)] = farthest_distance_reaching(k);
  return steps;
}

}  // namespace

const std::array<double, 15>& cqi_step_distances() {
  static const std::array<double, 15> steps = make_cqi_step_distances();
  return steps;
}

int lookup_cqi_at_distance(double meters) {
  PRAN_REQUIRE(meters >= 0.0, "distance must be non-negative");
  int cqi = 0;
  for (const double step : cqi_step_distances()) cqi += meters <= step;
  return cqi;
}

BitRate prb_rate_bps(int mcs_index) {
  // One PRB carries kUsableRePerPrb usable resource elements per 1 ms TTI.
  return BitRate{mcs(mcs_index).spectral_eff *
                 static_cast<double>(kUsableRePerPrb) / 1e-3};
}

PrbCount prbs_for_rate(BitRate rate, int mcs_index) {
  PRAN_REQUIRE(rate >= BitRate{0.0}, "rate must be non-negative");
  if (rate == BitRate{0.0}) return PrbCount{0};
  const BitRate per_prb = prb_rate_bps(mcs_index);
  return PrbCount{static_cast<int>(std::ceil(rate / per_prb))};
}

}  // namespace pran::lte
