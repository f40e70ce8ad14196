#include "fronthaul/link.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::fronthaul {

using units::Bits;
using units::BitRate;
using units::Hertz;

FronthaulLink::FronthaulLink(LinkParams params) : params_(params) {
  PRAN_REQUIRE(params_.rate_bps > BitRate{0.0}, "link rate must be positive");
  PRAN_REQUIRE(params_.propagation >= 0, "propagation must be non-negative");
}

void FronthaulLink::set_late_threshold(sim::Time threshold) {
  PRAN_REQUIRE(threshold >= 0, "late threshold must be non-negative");
  late_threshold_ = threshold;
}

BurstOutcome FronthaulLink::enqueue_burst(sim::Time ready, Bits bits) {
  PRAN_REQUIRE(bits >= Bits{0}, "burst size must be non-negative");
  PRAN_REQUIRE(ready >= last_ready_, "FIFO ingress requires ordered bursts");
  last_ready_ = ready;

  BurstImpairment impairment;
  if (hook_) {
    impairment = hook_(ready, bits);
    PRAN_CHECK(impairment.capacity_factor > 0.0 &&
                   impairment.capacity_factor <= 1.0,
               "impairment capacity factor outside (0, 1]");
    PRAN_CHECK(impairment.extra_delay >= 0,
               "impairment jitter must be non-negative");
  }

  ++window_.bursts;
  if (impairment.lost) {
    // Ingress drop: the eCPRI packet died in the switch fabric before the
    // wire, so it consumes no serialisation time and never arrives.
    ++window_.lost;
    return BurstOutcome{true, 0, 0};
  }

  const sim::Time start = std::max(ready, next_free_);
  const double rate =
      params_.rate_bps.value() * impairment.capacity_factor;
  const auto tx = static_cast<sim::Time>(
      std::llround(static_cast<double>(bits.count()) / rate * 1e9));
  next_free_ = start + tx;
  busy_ += tx;
  const sim::Time queue_delay = start - ready;
  max_queue_delay_ = std::max(max_queue_delay_, queue_delay);
  window_.max_queue_delay = std::max(window_.max_queue_delay, queue_delay);
  return BurstOutcome{
      false, next_free_ + params_.propagation + impairment.extra_delay,
      queue_delay, queue_delay + impairment.extra_delay > late_threshold_};
}

double FronthaulLink::utilization(sim::Time horizon, bool* saturated) const {
  PRAN_REQUIRE(horizon > 0, "horizon must be positive");
  if (saturated) *saturated = busy_ > horizon;
  return sim::to_seconds(std::min(busy_, horizon)) / sim::to_seconds(horizon);
}

FronthaulLink::Window FronthaulLink::take_window() {
  const Window out = window_;
  window_ = Window{};
  return out;
}

Bits subframe_bits(Hertz sample_rate, int bits_per_component, int antennas,
                   double compression_ratio) {
  PRAN_REQUIRE(sample_rate > Hertz{0.0}, "sample rate must be positive");
  PRAN_REQUIRE(bits_per_component > 0, "sample width must be positive");
  PRAN_REQUIRE(antennas > 0, "need at least one antenna");
  PRAN_REQUIRE(compression_ratio > 0.0, "compression ratio must be positive");
  return Bits{std::llround(sample_rate.value() * 1e-3 * 2.0 *
                           static_cast<double>(bits_per_component) *
                           static_cast<double>(antennas) /
                           compression_ratio)};
}

}  // namespace pran::fronthaul
