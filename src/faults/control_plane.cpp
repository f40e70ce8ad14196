#include "faults/control_plane.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::faults {

ControlPlaneChannel::ControlPlaneChannel(
    const ControlPlaneImpairmentConfig& config, std::uint64_t seed)
    : config_(config) {
  PRAN_REQUIRE(config_.loss_probability >= 0.0 &&
                   config_.loss_probability <= 1.0,
               "control-plane loss probability outside [0, 1]");
  PRAN_REQUIRE(config_.max_jitter >= 0,
               "control-plane jitter bound must be non-negative");
  PRAN_REQUIRE(config_.reorder_probability >= 0.0 &&
                   config_.reorder_probability <= 1.0,
               "control-plane reorder probability outside [0, 1]");
  PRAN_REQUIRE(config_.reorder_probability == 0.0 ||
                   config_.reorder_delay > 0,
               "reordering needs a positive reorder delay");
  // Fixed substream assignment: the loss sequence depends only on
  // (seed, message index), never on whether jitter or reordering is on.
  const Rng root(seed);
  loss_rng_ = root.stream(0);
  jitter_rng_ = root.stream(1);
  reorder_rng_ = root.stream(2);
}

ControlDelivery ControlPlaneChannel::send(sim::Time now) {
  ControlDelivery out;
  out.seq = sent_++;

  // All three draws happen unconditionally and in fixed order so the
  // outcome of message n is a pure function of (seed, n).
  const double loss_draw = loss_rng_.uniform();
  const double jitter_draw = jitter_rng_.uniform();
  const double reorder_draw = reorder_rng_.uniform();

  const bool scripted =
      std::find(config_.scripted_drops.begin(), config_.scripted_drops.end(),
                out.seq) != config_.scripted_drops.end();
  if (scripted || loss_draw < config_.loss_probability) {
    out.lost = true;
    ++lost_;
    log_.push_back(out);
    return out;
  }

  sim::Time delay = kControlPlaneBaseDelay;
  if (config_.max_jitter > 0)
    delay += static_cast<sim::Time>(
        jitter_draw * static_cast<double>(config_.max_jitter));
  if (config_.reorder_probability > 0.0 &&
      reorder_draw < config_.reorder_probability) {
    out.reordered = true;
    delay += config_.reorder_delay;
  }
  out.deliver_at = now + delay;
  log_.push_back(out);
  return out;
}

}  // namespace pran::faults
