#pragma once

/// \file overload.hpp
/// Compute-aware overload control: the complexity-rate tradeoff as a
/// control knob.
///
/// The pooled-compute story (and the complexity-rate analysis of
/// centralized RANs it leans on) only holds if the data plane has an
/// answer for the moments when offered PHY work exceeds the pool's GOPS
/// budget. Queueing until deadlines blow is the worst answer: every
/// queued-too-long subframe bursts into a HARQ retransmission and the
/// overload feeds itself. This module gives the deployment two better
/// currencies, spent in order:
///
///   1. *Decode effort.* Turbo iterations are the dominant PHY cost and
///      most blocks converge early, so capping the per-TB iteration
///      budget converts compute into a small BLER risk. The backpressure
///      loop reads each server's backlog (Executor::backlog_ttis) every
///      TTI and clamps the effort cap between kMaxEffort (no pressure)
///      and kMinEffort (saturated) — a proportional controller that
///      reacts within one TTI, orders of magnitude faster than the epoch
///      ladder.
///   2. *The work itself.* When even the cheapest decode cannot meet the
///      deadline, the subframe is abandoned *before* it wastes a queue
///      slot — a **computational outage**, recorded as its own outcome
///      (JobOutcome::compute_outage) distinct from a fault drop and from
///      a deadline miss. Its HARQ debt is settled honestly, like a shed.
///
/// The epoch-scale DegradationController owns the slow, hysteretic
/// version of the same decisions (effort rungs, MCS cap); this module is
/// the fast loop under it. Both clamp the same per-TB budget, and the
/// tighter cap wins.

#include "lte/cost_model.hpp"

namespace pran::core {

struct OverloadConfig {
  bool enabled = false;
};

/// Effort cap with an idle queue: no cap.
inline constexpr int kMaxEffort = lte::kMaxTurboIterations;
/// Effort floor at full pressure: even a saturated server grants this
/// many iterations (1 = decode once, take the BLER).
inline constexpr int kMinEffort = lte::kMinTurboIterations;
/// Backlog (in TTIs of server throughput, Executor::backlog_ttis) at
/// which the cap starts stepping down from kMaxEffort...
inline constexpr double kPressureOnsetTtis = 0.5;
/// ...and at which it bottoms out at kMinEffort. Between the two the cap
/// interpolates linearly — a proportional controller, no state to
/// oscillate.
inline constexpr double kPressureFullTtis = 2.0;

static_assert(kMinEffort <= kMaxEffort &&
                  kMaxEffort <= lte::kMaxTurboIterations,
              "effort caps must be ordered inside the decoder's budget");
static_assert(kPressureOnsetTtis < kPressureFullTtis,
              "pressure thresholds must leave a proportional band");

/// Effort cap for one submission to a server with `backlog_ttis` of
/// queued work when the loop is enabled: kMaxEffort at or below the
/// onset, kMinEffort at or above full pressure, linear in between. Pure
/// function — trivially testable and thread-count invariant.
int effort_cap_for_pressure(double backlog_ttis);

}  // namespace pran::core
