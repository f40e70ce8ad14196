#include "faults/fronthaul.hpp"

#include "common/check.hpp"

namespace pran::faults {

FronthaulImpairments::FronthaulImpairments(
    const FronthaulImpairmentConfig& config, std::uint64_t seed)
    : config_(config) {
  const auto& ge = config_.loss;
  PRAN_REQUIRE(ge.p_good_to_bad >= 0.0 && ge.p_good_to_bad <= 1.0,
               "Gilbert-Elliott p_good_to_bad outside [0, 1]");
  PRAN_REQUIRE(ge.p_bad_to_good >= 0.0 && ge.p_bad_to_good <= 1.0,
               "Gilbert-Elliott p_bad_to_good outside [0, 1]");
  PRAN_REQUIRE(ge.loss_bad >= 0.0 && ge.loss_bad <= 1.0,
               "Gilbert-Elliott loss_bad outside [0, 1]");
  PRAN_REQUIRE(config_.jitter.max_jitter >= 0,
               "jitter bound must be non-negative");
  if (config_.brownout.enabled()) {
    PRAN_REQUIRE(config_.brownout.mean_duration_seconds > 0.0,
                 "brownout duration must be positive");
    PRAN_REQUIRE(config_.brownout.capacity_factor > 0.0 &&
                     config_.brownout.capacity_factor <= 1.0,
                 "brownout capacity factor outside (0, 1]");
  }
  // Fixed substream assignment: the loss sequence depends only on
  // (seed, burst index), never on whether jitter or brownouts are on.
  const Rng root(seed);
  loss_rng_ = root.stream(0);
  jitter_rng_ = root.stream(1);
  brownout_rng_ = root.stream(2);
  if (config_.brownout.enabled()) {
    brownout_edge_ = sim::from_seconds(
        brownout_rng_.exponential(1.0 / config_.brownout.mtbb_seconds));
  }
}

void FronthaulImpairments::advance_brownout_timeline(sim::Time now) {
  if (!config_.brownout.enabled()) return;
  while (now >= brownout_edge_) {
    if (in_brownout_) {
      in_brownout_ = false;
      brownout_edge_ += std::max<sim::Time>(
          sim::from_seconds(
              brownout_rng_.exponential(1.0 / config_.brownout.mtbb_seconds)),
          1);
    } else {
      in_brownout_ = true;
      ++brownouts_;
      brownout_edge_ += std::max<sim::Time>(
          sim::from_seconds(brownout_rng_.exponential(
              1.0 / config_.brownout.mean_duration_seconds)),
          1);
    }
  }
}

fronthaul::BurstImpairment FronthaulImpairments::apply(sim::Time ready,
                                                       units::Bits bits) {
  PRAN_REQUIRE(bits >= units::Bits{0}, "burst size must be non-negative");

  fronthaul::BurstImpairment out;

  // Loss chain: both draws happen unconditionally and in fixed order, so
  // the sequence is a pure function of (seed, burst index).
  if (config_.loss.enabled()) {
    const double transition_draw = loss_rng_.uniform();
    const double loss_draw = loss_rng_.uniform();
    if (bad_state_) {
      if (transition_draw < config_.loss.p_bad_to_good) bad_state_ = false;
    } else {
      if (transition_draw < config_.loss.p_good_to_bad) bad_state_ = true;
    }
    const double p_loss =
        bad_state_ ? config_.loss.loss_bad : kGoodStateLoss;
    out.lost = loss_draw < p_loss;
  }

  if (config_.jitter.enabled()) {
    const double draw = jitter_rng_.uniform();
    out.extra_delay = static_cast<sim::Time>(
        draw * static_cast<double>(config_.jitter.max_jitter));
  }

  advance_brownout_timeline(ready);
  if (in_brownout_) out.capacity_factor = config_.brownout.capacity_factor;

  return out;
}

}  // namespace pran::faults
