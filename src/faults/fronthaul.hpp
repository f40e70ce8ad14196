#pragma once

/// \file fronthaul.hpp
/// Fronthaul transport impairments: the fault domain PR 3 left out.
///
/// Real CPRI/eCPRI transports are not lossless FIFOs. Three impairment
/// processes reproduce what they actually suffer:
///
///   * Gilbert–Elliott burst loss — a two-state Markov chain (Good/Bad)
///     advanced once per burst; each state has its own per-burst loss
///     probability, so losses cluster the way switch-buffer overruns and
///     microwave fades do instead of arriving i.i.d.;
///   * bounded jitter — per-burst forwarding delay, uniform in
///     [0, max_jitter], added to the arrival time (delivery is late, the
///     wire schedule is untouched);
///   * link-rate brownouts — an on/off process (exponential time-to-
///     brownout, exponential duration) during which the effective link
///     capacity is multiplied by `capacity_factor` (an LAG member down, a
///     shared-fabric co-tenant, an optics step-down).
///
/// Determinism contract (same as the server-fault injector): all draws
/// come from fixed `Rng::stream()` substreams of one seed — stream 0
/// drives the loss chain, stream 1 the jitter, stream 2 the brownout
/// timeline — and every per-burst draw happens unconditionally in fixed
/// order. The loss sequence therefore depends only on (seed, burst
/// index): enabling or re-tuning jitter or brownouts cannot perturb which
/// bursts are lost, and a surrounding sweep is invariant in --threads
/// because each deployment owns its own impairment instance.
///
/// The model plugs into FronthaulLink::set_impairment_hook via apply();
/// bursts must be presented in nondecreasing ready order (the link
/// enforces the same FIFO ingress contract).

#include <cstdint>

#include "common/rng.hpp"
#include "fronthaul/link.hpp"
#include "sim/time.hpp"

namespace pran::faults {

/// Per-burst loss probability in the Good state: the good state loses
/// nothing (its loss draw still happens, see FronthaulImpairments::apply).
inline constexpr double kGoodStateLoss = 0.0;

/// Two-state Markov burst-loss process, advanced once per burst.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  ///< Per-burst Good -> Bad probability.
  double p_bad_to_good = 0.3;  ///< Per-burst Bad -> Good probability.
  double loss_bad = 0.5;      ///< Per-burst loss probability in Bad.

  /// Only the Bad state loses bursts, so the chain matters only when it
  /// can reach Bad and Bad loses something.
  bool enabled() const noexcept {
    return p_good_to_bad > 0.0 && loss_bad > 0.0;
  }
  /// Stationary expected loss rate of the chain.
  double mean_loss_rate() const noexcept {
    const double denom = p_good_to_bad + p_bad_to_good;
    if (denom <= 0.0) return kGoodStateLoss;
    const double p_bad = p_good_to_bad / denom;
    return (1.0 - p_bad) * kGoodStateLoss + p_bad * loss_bad;
  }
};

/// Per-burst forwarding jitter, uniform in [0, max_jitter].
struct JitterConfig {
  sim::Time max_jitter = 0;  ///< 0 disables.

  bool enabled() const noexcept { return max_jitter > 0; }
};

/// On/off link-capacity brownouts.
struct BrownoutConfig {
  double mtbb_seconds = 0.0;          ///< Mean time between brownouts; 0 disables.
  double mean_duration_seconds = 0.05;  ///< Mean brownout length.
  double capacity_factor = 0.7;       ///< Rate multiplier while browned out.

  bool enabled() const noexcept { return mtbb_seconds > 0.0; }
};

struct FronthaulImpairmentConfig {
  GilbertElliottConfig loss;
  JitterConfig jitter;
  BrownoutConfig brownout;

  bool enabled() const noexcept {
    return loss.enabled() || jitter.enabled() || brownout.enabled();
  }
};

/// Deterministic impairment source for one fronthaul link. Stateful: the
/// loss chain and the brownout timeline advance with the bursts, so one
/// instance serves exactly one link.
class FronthaulImpairments {
 public:
  FronthaulImpairments(const FronthaulImpairmentConfig& config,
                       std::uint64_t seed);

  /// Impairment decision for the next burst. `ready` must be
  /// nondecreasing across calls (the link's FIFO ingress order).
  fronthaul::BurstImpairment apply(sim::Time ready, units::Bits bits);

  /// Completed + in-progress brownout episodes so far.
  std::uint64_t brownouts() const noexcept { return brownouts_; }

 private:
  void advance_brownout_timeline(sim::Time now);

  FronthaulImpairmentConfig config_;
  Rng loss_rng_;
  Rng jitter_rng_;
  Rng brownout_rng_;
  bool bad_state_ = false;
  bool in_brownout_ = false;
  sim::Time brownout_edge_ = 0;  ///< Next on/off transition time.
  std::uint64_t brownouts_ = 0;
};

}  // namespace pran::faults
