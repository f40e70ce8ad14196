#include "mac/ue.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::mac {

Ue::Ue(UeConfig config, std::uint64_t seed) : config_(config), rng_(seed) {
  PRAN_REQUIRE(config_.distance_m > 0.0, "UE distance must be positive");
  PRAN_REQUIRE(config_.mean_arrival_bps >= 0.0,
               "arrival rate must be non-negative");
  PRAN_REQUIRE(config_.burst_bytes > 0.0, "burst size must be positive");
  advance_channel();
}

void Ue::advance_channel() {
  // 3 dB log-normal fast fading around the distance-determined SNR.
  fading_db_ = units::Db{rng_.normal(0.0, 3.0)};
  const units::Db snr = lte::snr_db(config_.distance_m) + fading_db_;
  cqi_ = lte::cqi_from_efficiency(lte::spectral_efficiency(snr));
}

void Ue::advance_traffic() {
  if (config_.traffic == TrafficKind::kFullBuffer) return;
  // Poisson bursts: expected bursts per TTI * mean size keeps the offered
  // rate at mean_arrival_bps.
  const double bits_per_tti = config_.mean_arrival_bps * 1e-3;
  const double bursts_per_tti = bits_per_tti / (config_.burst_bytes * 8.0);
  const std::uint32_t bursts = rng_.poisson(bursts_per_tti);
  for (std::uint32_t b = 0; b < bursts; ++b)
    backlog_bytes_ += rng_.exponential(1.0 / config_.burst_bytes);
}

bool Ue::has_data() const noexcept {
  if (config_.traffic == TrafficKind::kFullBuffer) return true;
  return backlog_bytes_ >= 1.0;
}

double Ue::drain(double bytes) {
  PRAN_REQUIRE(bytes >= 0.0, "cannot drain negative bytes");
  if (config_.traffic == TrafficKind::kFullBuffer) return bytes;
  const double taken = std::min(bytes, backlog_bytes_);
  backlog_bytes_ -= taken;
  return taken;
}

void Ue::update_average(double served, double window_ttis) {
  PRAN_REQUIRE(window_ttis >= 1.0, "PF window must be >= 1 TTI");
  const double alpha = 1.0 / window_ttis;
  const double served_bps = served / 1e-3;  // bits per 1 ms TTI
  avg_tput_bps_ = (1.0 - alpha) * avg_tput_bps_ + alpha * served_bps;
  total_bits_ += served;
}

}  // namespace pran::mac
